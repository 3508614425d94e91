from __future__ import annotations

import ast
from pathlib import Path

import degpow

SOURCE = Path(degpow.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a guard written as one silently vanishes
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert (SOURCE / "verify.py").exists()
    assert found == []
