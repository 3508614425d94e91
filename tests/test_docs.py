"""The README's quick tour and the table script run as documented."""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

from degpow.verify import THRESHOLD_PAIRS

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_tour_runs():
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    env: dict = {}
    checked = []
    # run the block statement by statement; an expression commented with a
    # number must evaluate to it
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), env)
            comment = re.search(r"#\s*(\d+)", lines[stmt.lineno - 1])
            if comment:
                checked.append((value, int(comment.group(1))))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), env)
    assert checked == [(96, 96), (23, 23), (31, 31)]


def test_reproduce_tables_prints_the_wheel_table(capsys):
    path = ROOT / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    table = THRESHOLD_PAIRS["W_vs_K3"].table
    assert lines[0].endswith("[n0, 200]:")
    assert lines[1].split(":")[1].split() == [str(p) for p in table]
    assert lines[2].split(":")[1].split() == [str(n0) for n0 in table.values()]
