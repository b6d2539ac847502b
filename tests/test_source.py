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
    # `python -O` strips assert statements and folds away `if __debug__:`
    # blocks, so a check written as either silently stops running; the
    # package raises typed errors instead.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ] == []


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


def test_no_module_imports_dataclasses():
    # the records are named tuples: dataclasses and the inspect module it
    # pulls in would cost every command line start-up
    imported = [
        (path.stem, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert imported == []


def test_commands_load_neither_dataclasses_nor_inspect():
    code = (
        "import sys, orbitdiag.cli, orbitdiag.invariants, orbitdiag.oracle, orbitdiag.polyring; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "\n"


def test_bare_import_loads_no_submodule():
    code = "import sys, orbitdiag; print(*sorted(m for m in sys.modules if m.startswith('orbitdiag.')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "\n"


# Where a `Fraction` may be built: the input normaliser and the --form
# loader.  Everywhere else integer input must stay integer.
FRACTION_SITES = {("core", "_exact"), ("cli", "_load_form")}


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


# Every function, method and class of the library is named somewhere in the
# library or the benchmark outside its own definition: API that only the
# tests call belongs in the tests.  Dunder names run implicitly, and a named
# tuple's `_make` runs inside `_replace`.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node, owners=()):
    """Each identifier node names, skipping its uses inside a definition of the same name."""
    if isinstance(node, DEFINITIONS):
        owners = (*owners, node.name)
    if isinstance(node, ast.Name):
        names = (node.id,)
    elif isinstance(node, ast.Attribute):
        names = (node.attr,)
    elif isinstance(node, ast.alias):
        names = (node.name.rpartition(".")[2], node.asname)
    else:
        names = ()
    yield from (name for name in names if name and name not in owners)
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, owners)


def test_every_definition_has_a_caller():
    library = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.rglob("*.py"))]
    used = {name for tree in [*library.values(), *bench] for name in _uses(tree)}
    uncalled = [
        (path.stem, node.name)
        for path, tree in library.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and node.name not in used
        and node.name != "_make"
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert uncalled == []


# A packed key is private to polyring: no other module lays one out, packs a
# monomial into one or reads one back.
KEY_FUNCTIONS = {"_layout", "_pack", "_unpack"}


def test_only_polyring_names_its_key_functions():
    named = sorted(
        (path.stem, name)
        for path in MODULES
        if path.stem != "polyring"
        for name in _uses(ast.parse(path.read_text(encoding="utf-8")))
        if name in KEY_FUNCTIONS
    )
    assert named == []
