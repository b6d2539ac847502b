"""Index and coadjoint invariants of quotients of strictly lower-triangular
matrix Lie algebras, via a combinatorial diagram-filling procedure, with
exact symbolic construction of the invariants and brute-force numeric
cross-checks.

Submodules load on first use (PEP 562): `import orbitdiag` is cheap, and a
name such as `orbitdiag.index_oracle` imports its submodule when first read.
"""

import importlib

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "core": (
        "ConsistencyError", "LinearForm", "MissingCoordinateError", "NotAnIdealError",
        "OutOfRangeError", "Pair", "PatternIdeal", "QuotientAlgebra", "SignedTerm",
        "UnipotentElement", "all_pairs", "bracket", "coadjoint_act",
        "enumerate_pattern_ideals", "order_gt", "random_form", "random_unipotent",
        "sample_pattern_ideals", "validate_pattern_ideal",
    ),
    "diagram": (
        "Diagram", "StepOutOfRangeError", "StepRecord", "Symbol", "SymbolKind", "b_set",
        "build_diagram", "check_closure", "classify_step", "d_minus",
        "dominating_ideal", "index_of", "max_orbit_dim",
    ),
    "invariants": (
        "CentralityError", "InconsistentStateError", "NotTriangularError",
        "RelationReport", "ThetaState", "build_invariants", "initial_state",
        "theta_step", "triangular_decompose", "verify_centrality", "verify_relations",
    ),
    "oracle": (
        "SkewMatrix", "exact_rank", "generic_jacobian_rank", "index_oracle",
        "invariance_oracle", "jacobian_rank", "skew_form_matrix",
    ),
    "polyring": (
        "LocalizedElement", "Polynomial", "PolynomialSyntaxError", "canonical_string",
        "evaluate", "parse_polynomial", "partial_derivative", "poisson_bracket",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "1.0.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
