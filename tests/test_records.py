"""The package's records are named tuples: each keeps its fields, its
`Name(field=value, ...)` repr, equality, its hash where it had one, its
immutability and its constructor checks."""

from collections import Counter
from fractions import Fraction

import pytest

from orbitdiag.cli import IdealSpec, parse_ideal_spec
from orbitdiag.core import LinearForm, Pair, PatternIdeal, QuotientAlgebra, UnipotentElement, validate_pattern_ideal
from orbitdiag.diagram import Diagram, StepRecord, build_diagram
from orbitdiag.invariants import RelationReport, ThetaState, initial_state, verify_relations
from orbitdiag.oracle import SkewMatrix, skew_form_matrix
from orbitdiag.polyring import LocalizedElement, Polynomial

EXAMPLE_IDEAL = [(5, 1), (6, 1), (7, 1), (7, 2)]


def example(cls):
    """A fresh instance of the record class, built the way the package builds it."""
    ideal = validate_pattern_ideal(7, EXAMPLE_IDEAL)
    algebra = QuotientAlgebra.from_ideal(ideal)
    form = LinearForm.from_dict(algebra, {Pair(4, 1): 3, Pair(3, 2): Fraction(1, 2), Pair(2, 1): 0})
    d = build_diagram(ideal)
    return {
        PatternIdeal: lambda: ideal,
        QuotientAlgebra: lambda: algebra,
        LinearForm: lambda: form,
        UnipotentElement: lambda: UnipotentElement(((1, 0, 0), (2, 1, 0), (Fraction(1, 2), 0, 1))),
        StepRecord: lambda: d.steps[1],
        Diagram: lambda: d,
        IdealSpec: lambda: parse_ideal_spec("4: 4,1; 4,2"),
        SkewMatrix: lambda: skew_form_matrix(form, ideal),
        ThetaState: lambda: initial_state(d),
        RelationReport: lambda: verify_relations(initial_state(d), d, 1),
        LocalizedElement: lambda: LocalizedElement(Polynomial.variable(Pair(2, 1)), {1: 2, 2: 0}),
    }[cls]()


RECORDS = {
    PatternIdeal: ("n", "members"),
    QuotientAlgebra: ("ideal",),
    LinearForm: ("algebra", "values"),
    UnipotentElement: ("entries",),
    StepRecord: ("xi", "minus", "plus", "p"),
    Diagram: ("ideal", "cells", "steps"),
    IdealSpec: ("n", "pairs"),
    SkewMatrix: ("rows",),
    ThetaState: ("images", "z_list"),
    RelationReport: ("state", "checked", "passed", "counterexample"),
    LocalizedElement: ("num", "den"),
}
# records that hold a dict (Diagram.cells, SkewMatrix.rows, ThetaState.images,
# LocalizedElement.den) cannot be hashed, as before
HASHABLE = {PatternIdeal, QuotientAlgebra, LinearForm, UnipotentElement, StepRecord, IdealSpec}
by_name = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


@by_name
def test_record_fields_and_repr(cls):
    record = example(cls)
    assert type(record) is cls and record._fields == RECORDS[cls]
    assert tuple(record) == tuple(getattr(record, field) for field in RECORDS[cls])
    body = ", ".join(f"{field}={getattr(record, field)!r}" for field in RECORDS[cls])
    assert repr(record) == f"{cls.__name__}({body})"


@by_name
def test_record_equality_and_hash(cls):
    record, twin = example(cls), example(cls)
    assert record == twin and record == tuple(record)
    assert record != (*record[:-1], object())
    if cls in HASHABLE:
        assert hash(record) == hash(twin) == hash(tuple(record))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@by_name
def test_record_fields_cannot_be_assigned(cls):
    record = example(cls)
    for field in RECORDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_record_defaults():
    state = example(ThetaState)
    assert RelationReport(state, 0, True) == (state, 0, True, None)
    assert LocalizedElement(Polynomial.constant(1)).den == Counter()


def test_cached_views_are_built_once_per_instance():
    algebra, form = example(QuotientAlgebra), example(LinearForm)
    assert algebra.columns is algebra.columns and form.lookup is form.lookup
    assert form.lookup == {Pair(4, 1): 3, Pair(3, 2): Fraction(1, 2)}
    assert algebra.basis is algebra.basis and (algebra.n, algebra.dim) == (7, 17)
    # a replaced record starts with no cached view: all three follow the new ideal
    smaller = algebra._replace(ideal=validate_pattern_ideal(3, [(3, 1)]))
    assert smaller.basis == (Pair(2, 1), Pair(3, 2))
    assert smaller.columns == {Pair(2, 1): 0, Pair(3, 2): 1}
    assert (smaller.n, smaller.dim) == (3, 2)
    with pytest.raises(ValueError, match="unexpected field"):
        algebra._replace(basis=smaller.basis)


def test_unipotent_checks_its_entries_on_construction_and_replace():
    g = example(UnipotentElement)
    assert g.entries == ((1, 0, 0), (2, 1, 0), (Fraction(1, 2), 0, 1)) and g.n == 3
    for entries in (((1, 0), (0.5, 1)), ((2, 0), (0, 1)), ((1, 3), (0, 1))):
        with pytest.raises(ValueError):
            UnipotentElement(entries)
        with pytest.raises(ValueError):
            g._replace(entries=entries)


def test_localized_element_drops_zero_exponents_and_refuses_negative_ones():
    den = {1: 2, 2: 0}
    a = LocalizedElement(Polynomial.variable(Pair(2, 1)), den)
    assert type(a.den) is Counter and a.den == {1: 2} and list(a.den) == [1]
    den[1] = 5  # the record holds a copy
    assert a.den == {1: 2}
    assert a._replace(den={3: 0}).den == Counter()
    for build in (
        lambda: LocalizedElement(a.num, {1: 1, 2: -1}),
        lambda: a._replace(den=Counter({1: -1})),
    ):
        with pytest.raises(ValueError, match="negative exponent"):
            build()
