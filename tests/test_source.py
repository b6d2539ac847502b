"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

from orbitdiag import core, diagram


@pytest.mark.parametrize("module", [core, diagram], ids=lambda m: m.__name__)
def test_checks_do_not_use_assert(module):
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; these modules raise typed errors instead.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
