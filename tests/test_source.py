"""Rules on the library source itself."""

import ast
import importlib
import subprocess
import sys
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


# --- the package namespace loads its submodules on first use ----------------------


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from orbitdiag import *", namespace)
    assert [name for name in orbitdiag.__all__ if name not in namespace] == []


def test_dir_lists_every_public_name():
    assert set(orbitdiag.__all__) <= set(dir(orbitdiag))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'orbitdiag' has no attribute 'no_such_name'"):
        orbitdiag.no_such_name


def test_missing_coordinate_error_is_one_class():
    from orbitdiag import core, polyring

    assert orbitdiag.MissingCoordinateError is core.MissingCoordinateError is polyring.MissingCoordinateError


def test_bare_import_loads_no_submodule():
    code = "import sys, orbitdiag; print(*sorted(m for m in sys.modules if m.startswith('orbitdiag.')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "\n"


# Where a `Fraction` may be built: the input normaliser, the --form loader
# and the one division whose quotient need not be integral.  Everywhere
# else integer input must stay integer.
FRACTION_SITES = {("core", "_exact"), ("cli", "_load_form"), ("polyring", "loc_evaluate")}


def _fraction_calls(node, owner=None):
    """(enclosing function, line) of every `Fraction(...)` call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Call) and "Fraction" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    ):
        yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _fraction_calls(child, owner)


def test_fraction_built_only_at_boundaries():
    stray = [
        (path.stem, owner, line)
        for path in MODULES
        for owner, line in _fraction_calls(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, owner) not in FRACTION_SITES
    ]
    assert stray == []
