from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import degpow

SOURCE = Path(degpow.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _nodes(match) -> list[str]:
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if match(node):
                found.append(f"{path.name}:{node.lineno}")
    assert (SOURCE / "verify.py").exists()
    return found


def _raises_system_exit_with_argument(node: ast.AST) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "SystemExit" and bool(exc.args or exc.keywords))


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a guard written as one silently vanishes
    assert _nodes(lambda node: isinstance(node, ast.Assert)) == []


def test_no_system_exit_with_a_message_in_the_package():
    # bad input leaves the CLI as a UsageError (exit 2, one stderr line);
    # SystemExit("...") would exit 1 and bypass that path
    assert _nodes(_raises_system_exit_with_argument) == []


def test_no_parameter_named_large():
    # how large an order may run is the CLI guard's decision (DEGPOW_MAX_N);
    # the library keeps only its resource limits and takes no opt-in
    def large_parameter(node: ast.AST) -> bool:
        return isinstance(node, ast.arg) and node.arg == "large"

    assert _nodes(large_parameter) == []


def test_only_the_cli_imports_process_pools():
    # importing concurrent.futures costs about 20 ms of setup; the grid
    # runner takes its pool from the CLI, which imports the module only
    # when a run starts a pool
    def pool_import(node: ast.AST) -> bool:
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        return any(name.split(".")[0] in ("concurrent", "multiprocessing") for name in names)

    assert [site for site in _nodes(pool_import) if not site.startswith("cli.py:")] == []
    assert [site for site in _nodes(pool_import) if site.startswith("cli.py:")]


def test_benchmark_trace_targets_exist():
    # the traced benchmark pass wraps these functions by name at install;
    # read the table without importing the tracer
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    assert targets
    missing = [f"{mod}.{fn}" for mod, fn, _ in targets
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert missing == []


def test_mutation_table_matches_the_source():
    # scripts/mutants.py replaces each old snippet by exact match and runs
    # the named tests; read its table without running a row
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.MUTANTS
    for mutant in module.MUTANTS:
        assert (ROOT / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        for test in mutant.tests:
            path, *_, name = test.split("::")
            assert f"def {name}(" in (ROOT / path).read_text(), test


def test_system_exit_detector():
    cases = {
        "raise SystemExit('bad')": True,
        "raise SystemExit(code=3)": True,
        "raise SystemExit": False,
        "raise SystemExit()": False,
        "sys.exit(main())": False,
        "raise UsageError('bad')": False,
    }
    for source, expected in cases.items():
        nodes = ast.walk(ast.parse(source))
        assert any(map(_raises_system_exit_with_argument, nodes)) is expected, source
