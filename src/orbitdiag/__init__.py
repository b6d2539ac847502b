"""Index and coadjoint invariants of quotients of strictly lower-triangular
matrix Lie algebras, via a combinatorial diagram-filling procedure, with
exact symbolic construction of the invariants and brute-force numeric
cross-checks.
"""

from .core import (
    ConsistencyError,
    LinearForm,
    NotAnIdealError,
    OutOfRangeError,
    Pair,
    PatternIdeal,
    QuotientAlgebra,
    SignedTerm,
    UnipotentElement,
    all_pairs,
    bracket,
    coadjoint_act,
    enumerate_pattern_ideals,
    order_gt,
    random_form,
    random_unipotent,
    sample_pattern_ideals,
    validate_pattern_ideal,
)
from .diagram import (
    Diagram,
    StepOutOfRangeError,
    StepRecord,
    Symbol,
    SymbolKind,
    b_set,
    build_diagram,
    check_closure,
    classify_step,
    d_minus,
    dominating_ideal,
    index_of,
    max_orbit_dim,
)
from .invariants import (
    CentralityError,
    InconsistentStateError,
    NotTriangularError,
    RelationReport,
    ThetaState,
    WeylPairs,
    build_invariants,
    initial_state,
    theta_step,
    triangular_decompose,
    verify_centrality,
    verify_relations,
    weyl_pairs,
)
from .oracle import (
    SkewMatrix,
    exact_rank,
    generic_jacobian_rank,
    index_oracle,
    invariance_oracle,
    jacobian_rank,
    skew_form_matrix,
)
from .polyring import (
    LocalizedElement,
    MissingCoordinateError,
    Polynomial,
    PolynomialSyntaxError,
    canonical_string,
    evaluate,
    parse_polynomial,
    partial_derivative,
    poisson_bracket,
)

__version__ = "1.0.0"
