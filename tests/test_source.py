"""Source-level rules for the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ordercraft"


def test_no_assert_statements():
    # python -O strips assert statements; invariants raise AssertionError instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
