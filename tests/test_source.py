"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

import orbitdiag

MODULES = sorted(Path(orbitdiag.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"orbitdiag.{p.stem}")
def test_checks_do_not_use_assert(path):
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; the package raises typed errors instead.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
