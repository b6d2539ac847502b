"""Rules on the library source itself."""

import ast
import importlib
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


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "__main__"], ids=lambda p: f"orbitdiag.{p.stem}"
)
def test_all_names_resolve(path):
    # a name left in __all__ after its definition is deleted would break
    # `from module import *` and advertise API that is gone
    module = importlib.import_module(
        "orbitdiag" if path.stem == "__init__" else f"orbitdiag.{path.stem}"
    )
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
