"""The filling procedure, its step records, and the survivor chain."""

import pytest

from orbitdiag.core import (
    ConsistencyError,
    Pair,
    PatternIdeal,
    QuotientAlgebra,
    all_pairs,
    bracket,
    enumerate_pattern_ideals,
    order_gt,
    validate_pattern_ideal,
)
from orbitdiag.diagram import (
    Diagram,
    StepOutOfRangeError,
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


def example_diagram():
    return build_diagram(validate_pattern_ideal(7, [(5, 1), (6, 1), (7, 1), (7, 2)]))


def as_tuples(pairs):
    return [tuple(p) for p in pairs]


# --- the n=7 worked example -----------------------------------------------------


def test_example_cross_chain():
    d = example_diagram()
    assert as_tuples(d.xi_list) == [(4, 1), (6, 2), (7, 3), (7, 4), (5, 4)]
    assert index_of(d) == 5
    assert max_orbit_dim(d) == 12
    assert index_of(d) + max_orbit_dim(d) == d.ideal.dim_quotient


def test_example_step_records():
    d = example_diagram()
    got = [
        (tuple(r.xi), r.p, as_tuples(r.minus), as_tuples(r.plus)) for r in d.steps
    ]
    assert got == [
        ((4, 1), 5, [(4, 2), (4, 3)], [(3, 1), (2, 1)]),
        ((6, 2), 7, [(6, 3), (6, 5)], [(5, 2), (3, 2)]),
        ((7, 3), 8, [(7, 5)], [(5, 3)]),
        ((7, 4), 8, [(7, 6)], [(6, 4)]),
        ((5, 4), 8, [], []),
    ]


def test_example_symbol_totals():
    d = example_diagram()
    assert len(d.xi_list) == 5
    assert len(d.pluses) == 6
    assert len(d.minuses) == 6
    assert len(d.cells) == 21
    bullets = {p for p, symbol in d.cells.items() if symbol.kind is SymbolKind.BULLET}
    assert bullets == d.ideal.members


def test_example_survivor_chain():
    d = example_diagram()
    assert len(b_set(d, 0)) == 17
    assert len(b_set(d, 1)) == 12
    assert set(as_tuples(b_set(d, 2))) == {
        (5, 3), (7, 3), (5, 4), (6, 4), (7, 4), (7, 5), (7, 6),
    }
    assert set(as_tuples(b_set(d, 3))) == {(5, 4), (6, 4), (7, 4), (7, 6)}
    assert as_tuples(b_set(d, 4)) == [(5, 4)]
    assert b_set(d, 5) == ()


def test_example_minus_families():
    d = example_diagram()
    assert set(as_tuples(d_minus(d, 1))) == {(4, 2), (4, 3)}
    assert set(as_tuples(d_minus(d, 2))) == {(4, 2), (4, 3), (6, 3), (6, 5)}
    assert set(as_tuples(d_minus(d, 3))) == {(4, 3), (6, 3), (6, 5), (7, 5)}
    assert set(as_tuples(d_minus(d, 4))) == {(6, 5), (7, 5), (7, 6)}
    assert d_minus(d, 5) == d_minus(d, 4)


def test_example_classification():
    d = example_diagram()
    step1 = {tuple(k): v for k, v in classify_step(d, 1).items()}
    assert step1 == {
        (3, 2): "1.1",
        (5, 2): "2", (6, 2): "2", (5, 3): "2", (6, 3): "2", (7, 3): "2",
        (5, 4): "3", (6, 4): "3", (7, 4): "3",
        (6, 5): "4", (7, 5): "4", (7, 6): "4",
    }
    step2 = {tuple(k): v for k, v in classify_step(d, 2).items()}
    assert step2 == {
        (5, 3): "1.1", (5, 4): "1.1", (6, 4): "1.2b",
        (7, 3): "2", (7, 4): "2", (7, 5): "2", (7, 6): "3",
    }
    step3 = {tuple(k): v for k, v in classify_step(d, 3).items()}
    assert step3 == {
        (5, 4): "1.1", (6, 4): "1.2c", (7, 4): "1.2b", (7, 6): "1.2b",
    }
    assert {tuple(k): v for k, v in classify_step(d, 4).items()} == {(5, 4): "1.2a"}
    assert classify_step(d, 5) == {}


def test_example_closures():
    d = example_diagram()
    raw = PatternIdeal(7, frozenset())
    for i in range(d.s + 1):
        assert check_closure(b_set(d, i), d.ideal)
    for i in range(1, d.s + 1):
        assert check_closure(d_minus(d, i), raw)


# --- small and degenerate cases ---------------------------------------------------


def test_full_lower_triangle_of_ut3():
    d = build_diagram(validate_pattern_ideal(3, []))
    assert as_tuples(d.xi_list) == [(3, 1)]
    assert as_tuples(d.steps[0].minus) == [(3, 2)]
    assert as_tuples(d.steps[0].plus) == [(2, 1)]
    assert index_of(d) == 1
    assert max_orbit_dim(d) == 2


def test_everything_in_the_ideal():
    d = build_diagram(validate_pattern_ideal(3, [(2, 1), (3, 1), (3, 2)]))
    assert d.s == 0
    assert index_of(d) == 0
    assert max_orbit_dim(d) == 0
    assert b_set(d, 0) == ()


def test_single_column_ideal():
    d = build_diagram(validate_pattern_ideal(4, [(4, 1)]))
    assert as_tuples(d.xi_list) == [(3, 1), (4, 2), (4, 3)]
    assert d.steps[0].p == 4
    assert d.steps[1].p == 5


def test_step_bounds_are_enforced():
    d = example_diagram()
    for bad in (-1, 6):
        with pytest.raises(StepOutOfRangeError):
            b_set(d, bad)
    for bad in (0, 6):
        with pytest.raises(StepOutOfRangeError):
            classify_step(d, bad)
        with pytest.raises(StepOutOfRangeError):
            d_minus(d, bad)
        with pytest.raises(StepOutOfRangeError):
            dominating_ideal(d, bad)


# --- internal checks on objects built without validation ------------------------


def test_build_diagram_rejects_an_unvalidated_non_ideal():
    # (2,1) without (3,1) is not lower-left closed; the cross lands at (3,1).
    with pytest.raises(ConsistencyError, match="lies above the cross"):
        build_diagram(PatternIdeal(3, frozenset({Pair(2, 1)})))


@pytest.mark.parametrize(
    "d, cell, i, message",
    [
        # Each case refiles one cell after step i.  (6,5) took its minus at
        # step 2; refiled, it is unfilled under the step-5 cross (5,4), above p = 8.
        (example_diagram(), Pair(6, 5), 5, "unfilled between the cross"),
        # In ut(4) step 2 crosses (3,2); (4,2) then survives below it.
        (build_diagram(validate_pattern_ideal(4, [])), Pair(4, 2), 2, "not above the cross"),
        # ... and (2,1) survives in the column left of it.
        (build_diagram(validate_pattern_ideal(4, [])), Pair(2, 1), 2, "left of the cross column"),
    ],
    ids=["unfilled-below-cross", "survivor-below-cross", "survivor-left-of-cross"],
)
def test_classify_step_rejects_tampered_cells(d, cell, i, message):
    cells = {**d.cells, cell: d.cells[cell]._replace(step=i + 1)}
    with pytest.raises(ConsistencyError, match=message):
        classify_step(Diagram(d.ideal, cells, d.steps), i)


# --- structural properties over every small ideal ----------------------------------


def test_b_set_matches_the_step_replay():
    # Independent reference: all positions minus M minus the crosses and
    # the pluses and minuses of steps 1..i.
    for n in range(1, 8):
        for ideal in enumerate_pattern_ideals(n):
            d = build_diagram(ideal)
            filled = set(ideal.members)
            for i in range(d.s + 1):
                if i:
                    rec = d.steps[i - 1]
                    filled.update((rec.xi, *rec.minus, *rec.plus))
                assert b_set(d, i) == tuple(p for p in all_pairs(n) if p not in filled)


def test_structure_exhaustive_small_n():
    for n in range(2, 7):
        for ideal in enumerate_pattern_ideals(n):
            d = build_diagram(ideal)
            assert index_of(d) + max_orbit_dim(d) == ideal.dim_quotient
            assert max_orbit_dim(d) % 2 == 0
            for rec in d.steps:
                assert len(rec.minus) == len(rec.plus)
                assert rec.p > rec.xi.row
                col = rec.xi.col
                bullets_in_col = {m.row for m in ideal.members if m.col == col}
                assert bullets_in_col == set(range(rec.p, n + 1))
            for earlier, later in zip(d.xi_list, d.xi_list[1:]):
                assert order_gt(earlier, later)


def test_survivors_shrink_and_stay_closed():
    for ideal in enumerate_pattern_ideals(5):
        d = build_diagram(ideal)
        previous = None
        for i in range(d.s + 1):
            current = set(b_set(d, i))
            assert check_closure(current, ideal)
            if previous is not None:
                assert current < previous
            previous = current


def test_minus_families_are_closed():
    # on their own for every n <= 6, and modulo the dominating cells always
    for n in range(2, 7):
        raw = PatternIdeal(n, frozenset())
        for ideal in enumerate_pattern_ideals(n):
            d = build_diagram(ideal)
            for i in range(1, d.s + 1):
                assert check_closure(d_minus(d, i), raw)
                assert check_closure(d_minus(d, i), dominating_ideal(d, i))


def test_minus_family_closure_boundary_at_n7():
    # smallest case where the bare minus family is not bracket-closed: two
    # members multiply into the cross's own column above it, so only the
    # closure modulo dominating cells survives
    ideal = validate_pattern_ideal(7, [(4, 1), (5, 1), (6, 1), (6, 2), (7, 1), (7, 2)])
    d = build_diagram(ideal)
    assert as_tuples(d.xi_list) == [(3, 1), (5, 2), (7, 3), (6, 4), (6, 5)]
    assert as_tuples(d_minus(d, 4)) == [(5, 4), (7, 5), (7, 6)]
    raw = PatternIdeal(7, frozenset())
    escaped = bracket(Pair(5, 4), Pair(7, 5), raw)
    assert escaped.pair == Pair(7, 4)
    assert not check_closure(d_minus(d, 4), raw)
    dominating = dominating_ideal(d, 4)
    assert escaped.pair in dominating.members
    assert check_closure(d_minus(d, 4), dominating)


def test_dominating_ideal_contents():
    d = example_diagram()
    assert set(as_tuples(dominating_ideal(d, 1).members)) == {(5, 1), (6, 1), (7, 1)}
    assert set(as_tuples(dominating_ideal(d, 2).members)) == {
        (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (7, 2),
    }


def test_every_cell_filled_exactly_once():
    for ideal in enumerate_pattern_ideals(5):
        d = build_diagram(ideal)
        basis = QuotientAlgebra.from_ideal(ideal).basis
        assert set(d.cells) == set(basis) | ideal.members
        marked = len(d.xi_list) + len(d.pluses) + len(d.minuses)
        assert marked == len(basis)


def test_closure_detects_open_sets():
    ut3 = validate_pattern_ideal(3, [])
    assert not check_closure([Pair(3, 2), Pair(2, 1)], ut3)
    assert check_closure([Pair(3, 2), Pair(2, 1), Pair(3, 1)], ut3)
    # the same two generators close up once the ideal absorbs their bracket
    absorbing = validate_pattern_ideal(3, [(3, 1)])
    assert check_closure([Pair(3, 2), Pair(2, 1)], absorbing)
