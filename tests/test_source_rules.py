"""Rules the package source keeps: runtime invariants raise typed errors.

``python -O`` strips ``assert`` statements, so an invariant written as one
silently stops being checked. The package raises InvariantViolation (or
another GraphError) instead; this test keeps it that way.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "graphboundary").glob("*.py"))


def _assert_uses(tree: ast.AST) -> list[int]:
    """Lines holding an assert statement or the name AssertionError."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "AssertionError"
        or isinstance(node, ast.Attribute) and node.attr == "AssertionError"
    )


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "boundary.py", "cli.py", "core.py"}


def test_no_assert_in_package_sources():
    found = {p.name: _assert_uses(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_rule_sees_assert_and_assertion_error():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise builtins.AssertionError\n")
    assert _assert_uses(tree) == [1, 2, 3]
