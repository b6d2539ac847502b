"""Pairs, the column-major order, ideals, brackets, and the group action."""

import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdiag.core import (
    ConsistencyError,
    LinearForm,
    NotAnIdealError,
    OutOfRangeError,
    Pair,
    PatternIdeal,
    QuotientAlgebra,
    UnipotentElement,
    ZERO_TERM,
    all_pairs,
    bracket,
    coadjoint_act,
    counter_rand,
    enumerate_pattern_ideals,
    order_gt,
    random_form,
    random_unipotent,
    sample_pattern_ideals,
    validate_pattern_ideal,
)
from orbitdiag.polyring import Polynomial, evaluate

EXAMPLE_IDEAL = [(5, 1), (6, 1), (7, 1), (7, 2)]


def pairs_strategy(n):
    return st.sampled_from(all_pairs(n))


# --- order ------------------------------------------------------------------


def test_order_chain_n4():
    chain = [(4, 1), (3, 1), (2, 1), (4, 2), (3, 2), (4, 3)]
    assert list(all_pairs(4)) == [Pair(*p) for p in chain]
    for a, b in itertools.combinations(chain, 2):
        assert order_gt(Pair(*a), Pair(*b))
        assert not order_gt(Pair(*b), Pair(*a))


def test_order_examples():
    assert order_gt(Pair(7, 1), Pair(2, 1))
    assert order_gt(Pair(2, 1), Pair(7, 2))
    assert not order_gt(Pair(5, 4), Pair(5, 4))


@given(pairs_strategy(7), pairs_strategy(7), pairs_strategy(7))
def test_order_is_total_and_transitive(a, b, c):
    if a != b:
        assert order_gt(a, b) != order_gt(b, a)
    if order_gt(a, b) and order_gt(b, c):
        assert order_gt(a, c)


# --- pattern ideals -----------------------------------------------------------


def test_validate_example_ideal():
    ideal = validate_pattern_ideal(7, EXAMPLE_IDEAL)
    assert ideal.members == frozenset(Pair(*p) for p in EXAMPLE_IDEAL)
    assert ideal.dim_quotient == 17


def test_validate_rejects_missing_closure():
    with pytest.raises(NotAnIdealError) as info:
        validate_pattern_ideal(7, [(6, 2)])
    assert info.value.missing in (Pair(7, 2), Pair(6, 1))


def test_validate_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        validate_pattern_ideal(4, [(5, 1)])
    with pytest.raises(OutOfRangeError):
        validate_pattern_ideal(4, [(2, 2)])


def test_empty_set_is_an_ideal():
    ideal = validate_pattern_ideal(3, [])
    assert ideal.members == frozenset()
    assert ideal.dim_quotient == 3


def test_quotient_basis_order_and_size():
    ideal = validate_pattern_ideal(7, EXAMPLE_IDEAL)
    algebra = QuotientAlgebra.from_ideal(ideal)
    assert len(algebra.basis) == 17
    assert not set(algebra.basis) & ideal.members
    keys = [(p.col, -p.row) for p in algebra.basis]
    assert keys == sorted(keys)


# --- bracket ------------------------------------------------------------------


def test_bracket_structure_constants():
    ut3 = validate_pattern_ideal(3, [])
    assert bracket(Pair(3, 2), Pair(2, 1), ut3) == (Fraction(1), Pair(3, 1))
    assert bracket(Pair(2, 1), Pair(3, 2), ut3) == (Fraction(-1), Pair(3, 1))
    assert bracket(Pair(3, 1), Pair(2, 1), ut3) == ZERO_TERM


def test_bracket_absorbed_by_ideal():
    ideal = validate_pattern_ideal(7, EXAMPLE_IDEAL)
    assert bracket(Pair(7, 6), Pair(6, 2), ideal) == ZERO_TERM


def test_bracket_antisymmetry_exhaustive():
    for ideal in enumerate_pattern_ideals(5):
        basis = QuotientAlgebra.from_ideal(ideal).basis
        for a, b in itertools.combinations(basis, 2):
            fwd = bracket(a, b, ideal)
            rev = bracket(b, a, ideal)
            assert fwd.pair == rev.pair
            assert fwd.coefficient == -rev.coefficient


def _acc_double_bracket(a, b, c, ideal, out):
    """Accumulate [[a,b],c] into the dict out."""
    inner = bracket(a, b, ideal)
    if inner.pair is None:
        return
    outer = bracket(inner.pair, c, ideal)
    if outer.pair is None:
        return
    out[outer.pair] = out.get(outer.pair, 0) + inner.coefficient * outer.coefficient


def test_jacobi_identity_exhaustive():
    for n in range(2, 6):
        for ideal in enumerate_pattern_ideals(n):
            basis = QuotientAlgebra.from_ideal(ideal).basis
            for a, b, c in itertools.combinations(basis, 3):
                total = {}
                _acc_double_bracket(a, b, c, ideal, total)
                _acc_double_bracket(b, c, a, ideal, total)
                _acc_double_bracket(c, a, b, ideal, total)
                assert all(v == 0 for v in total.values()), (n, a, b, c)


# --- linear forms and group elements -------------------------------------------


def test_form_rejects_ideal_positions():
    ideal = validate_pattern_ideal(7, EXAMPLE_IDEAL)
    algebra = QuotientAlgebra.from_ideal(ideal)
    with pytest.raises(OutOfRangeError):
        LinearForm.from_dict(algebra, {Pair(7, 1): Fraction(1)})


def test_form_errors_tell_an_ideal_position_from_one_outside_a():
    algebra = QuotientAlgebra.from_ideal(validate_pattern_ideal(7, EXAMPLE_IDEAL))
    with pytest.raises(OutOfRangeError, match=r"^pair \(5, 1\) lies in the ideal"):
        LinearForm.from_dict(algebra, {Pair(5, 1): Fraction(1, 2)})
    with pytest.raises(OutOfRangeError, match=r"^pair \(9, 1\) is not strictly lower-triangular in size 7$"):
        LinearForm.from_dict(algebra, {Pair(9, 1): 1})


def test_form_missing_coordinate_reads_zero():
    algebra = QuotientAlgebra.from_ideal(validate_pattern_ideal(3, []))
    f = LinearForm.from_dict(algebra, {Pair(3, 1): Fraction(2)})
    assert evaluate(Polynomial.variable(Pair(3, 1)), f) == 2
    assert evaluate(Polynomial.variable(Pair(2, 1)), f) == 0


def test_unipotent_must_be_unit_lower():
    with pytest.raises(ValueError):
        UnipotentElement(((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError):
        UnipotentElement(((Fraction(1), Fraction(3)), (Fraction(0), Fraction(1))))


def test_unipotent_refuses_inexact_entries():
    with pytest.raises(ValueError, match="int or Fraction"):
        UnipotentElement(((1, 0, 0), (0.1, 1, 0), (0.2, 0.3, 1)))


# --- the group law, as reference code ---------------------------------------------
#
# The library moves a form by one group element and never multiplies two, so
# the product and inverse that check `coadjoint_act` against the group law
# live here.


def _mat_mul(a, b):
    """a * b, adding only the products of two nonzero entries: about half of
    a triangular factor's entries are zero."""
    n = len(a)
    product = []
    for a_row in a:
        row = [0] * n
        for x, b_row in zip(a_row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        row[j] += x * y
        product.append(tuple(row))
    return tuple(product)


def _solve_right(c, g):
    """c * g^-1 for unit lower-triangular g: X g = c solved column by column from the right."""
    n = len(g)
    x = [list(row) for row in c]
    for j in reversed(range(n)):
        for k in range(j + 1, n):
            gkj = g[k][j]
            if gkj:
                for row in x:
                    row[j] -= row[k] * gkj
    return tuple(tuple(row) for row in x)


def unipotent(n, lower):
    """The unit lower-triangular element with the given entries below the diagonal."""
    rows = range(1, n + 1)
    return UnipotentElement(tuple(tuple(lower.get(Pair(i, j), int(i == j)) for j in rows) for i in rows))


def identity(n):
    return unipotent(n, {})


def times(g, h):
    return UnipotentElement(_mat_mul(g.entries, h.entries))


def inverse(g):
    return UnipotentElement(_solve_right(identity(g.n).entries, g.entries))


def test_unipotent_inverse():
    for seed in range(5):
        g = random_unipotent(6, 7, seed)
        assert times(g, inverse(g)) == identity(6)
        assert times(inverse(g), g) == identity(6)


def rational_unipotent(n, seed):
    return unipotent(
        n,
        {
            pair: Fraction(counter_rand(seed, index) % 19 - 9, counter_rand(seed, index, 1) % 6 + 2)
            for index, pair in enumerate(all_pairs(n))
        },
    )


def test_unipotent_inverse_with_rational_entries():
    for seed in range(4):
        g = rational_unipotent(6, seed)
        assert any(x.denominator > 1 for row in g.entries for x in row)
        assert times(g, inverse(g)) == identity(6)
        assert times(inverse(g), g) == identity(6)


SCALARS = st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@given(st.data())
def test_mat_mul_equals_the_triple_sum_on_triangular_factors(data):
    # triangular factors with zero entries, as `times`
    # multiplies them; some rows of each strict part are all zero
    n = data.draw(st.integers(1, 7))
    zero_rows = data.draw(st.sets(st.integers(0, n - 1)))

    def entry(i, inside):
        return data.draw(SCALARS) if inside and i not in zero_rows else 0

    a = tuple(tuple(1 if i == j else entry(i, j < i) for j in range(n)) for i in range(n))
    b = tuple(tuple(entry(i, j > i) for j in range(n)) for i in range(n))
    triple_sum = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )
    assert _mat_mul(a, b) == triple_sum
    assert _mat_mul(a, tuple(tuple(0 for _ in range(n)) for _ in range(n))) == ((0,) * n,) * n


# --- coadjoint action -----------------------------------------------------------


def test_coadjoint_small_matrix_cases():
    ut3 = validate_pattern_ideal(3, [])
    algebra = QuotientAlgebra.from_ideal(ut3)
    g = UnipotentElement(((1, 0, 0), (1, 1, 0), (0, 0, 1)))

    f = LinearForm.from_dict(algebra, {Pair(3, 1): Fraction(1)})
    moved = coadjoint_act(g, f, ut3)
    assert moved.lookup == {Pair(3, 1): 1, Pair(3, 2): 1}

    f = LinearForm.from_dict(algebra, {Pair(2, 1): Fraction(1)})
    assert coadjoint_act(g, f, ut3).lookup == {Pair(2, 1): 1}


def test_coadjoint_identity_fixes_everything():
    ideal = validate_pattern_ideal(7, EXAMPLE_IDEAL)
    algebra = QuotientAlgebra.from_ideal(ideal)
    f = random_form(algebra, 9, 123)
    assert coadjoint_act(identity(7), f, ideal).values == f.values


def test_coadjoint_is_a_group_action():
    ideal = validate_pattern_ideal(6, [(6, 1), (5, 1)])
    algebra = QuotientAlgebra.from_ideal(ideal)
    for seed in range(4):
        f = random_form(algebra, 8, seed)
        g = random_unipotent(6, 3, seed + 100)
        h = random_unipotent(6, 3, seed + 200)
        assert (
            coadjoint_act(times(g, h), f, ideal).values
            == coadjoint_act(g, coadjoint_act(h, f, ideal), ideal).values
        )


def test_coadjoint_round_trip_with_rational_group_and_form():
    ideal = validate_pattern_ideal(6, [(6, 1), (5, 1), (6, 2)])
    algebra = QuotientAlgebra.from_ideal(ideal)
    for seed in range(4):
        g = rational_unipotent(6, seed + 10)
        f = LinearForm.from_dict(
            algebra,
            {pair: Fraction(index - 5, index + 2) for index, pair in enumerate(algebra.basis)},
        )
        moved = coadjoint_act(inverse(g), f, ideal)
        assert moved != f
        assert coadjoint_act(g, moved, ideal) == f


def dense_move(g, f):
    """The move by the whole product g b and the whole solve, read on b's strict
    upper triangle: the nonzero values by position, ideal positions included."""
    n = g.n
    b = [[0] * n for _ in range(n)]
    for pair, value in f.values:
        b[pair.col - 1][pair.row - 1] = value
    moved = _solve_right(_mat_mul(g.entries, b), g.entries)
    values = {pair: moved[pair.col - 1][pair.row - 1] for pair in all_pairs(n)}
    return {pair: value for pair, value in values.items() if value}


def drawn_ideal(data):
    n = data.draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 20)), label="n")
    if n <= 5:
        return data.draw(st.sampled_from(list(enumerate_pattern_ideals(n))), label="ideal")
    if n <= 8:
        return sample_pattern_ideals(n, 1, data.draw(st.integers(0, 2**32), label="ideal seed"))[0]
    return validate_pattern_ideal(n, [])


@settings(deadline=None)
@given(st.data())
def test_coadjoint_equals_the_dense_move(data):
    ideal = drawn_ideal(data)
    algebra = QuotientAlgebra.from_ideal(ideal)
    rational_form = data.draw(st.booleans(), label="rational form")
    scalars = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)) if rational_form else st.integers(-50, 50)
    values = data.draw(st.lists(scalars, min_size=algebra.dim, max_size=algebra.dim), label="values")
    f = LinearForm.from_dict(algebra, dict(zip(algebra.basis, values)))
    seed = data.draw(st.integers(0, 2**32), label="group seed")
    rational_group = data.draw(st.booleans(), label="rational group")
    g = rational_unipotent(ideal.n, seed) if rational_group else random_unipotent(ideal.n, 3, seed)

    moved = coadjoint_act(g, f, ideal).lookup
    assert moved == dense_move(g, f)
    # an int where the value is integral, a Fraction where it is not
    assert all((type(value) is Fraction) == (value.denominator != 1) for value in moved.values())
    if not (rational_form or rational_group):
        assert all(type(value) is int for value in moved.values())


def test_coadjoint_rejects_a_form_built_with_a_value_on_the_ideal():
    # from_dict refuses (3,1) here; a form built directly bypasses that.
    ideal = validate_pattern_ideal(3, [(3, 1)])
    f = LinearForm(QuotientAlgebra.from_ideal(ideal), ((Pair(3, 1), Fraction(5)),))
    with pytest.raises(ConsistencyError, match="annihilator"):
        coadjoint_act(random_unipotent(3, 4, 0), f, ideal)


def test_coadjoint_keeps_annihilator():
    ideal = validate_pattern_ideal(7, EXAMPLE_IDEAL)
    algebra = QuotientAlgebra.from_ideal(ideal)
    for seed in range(4):
        moved = coadjoint_act(
            random_unipotent(7, 4, seed), random_form(algebra, 50, seed), ideal
        )
        assert not set(moved.lookup) & ideal.members


# --- enumeration and sampling ----------------------------------------------------


def test_enumeration_counts():
    assert [sum(1 for _ in enumerate_pattern_ideals(n)) for n in range(2, 9)] == [
        2, 5, 14, 42, 132, 429, 1430,
    ]


def test_enumeration_small_cases():
    two = [ideal.members for ideal in enumerate_pattern_ideals(2)]
    assert two == [frozenset(), frozenset({Pair(2, 1)})]
    three = {ideal.members for ideal in enumerate_pattern_ideals(3)}
    assert three == {
        frozenset(),
        frozenset({Pair(3, 1)}),
        frozenset({Pair(3, 1), Pair(2, 1)}),
        frozenset({Pair(3, 1), Pair(3, 2)}),
        frozenset({Pair(3, 1), Pair(2, 1), Pair(3, 2)}),
    }


def test_enumeration_starts_empty_and_validates():
    for n in range(2, 7):
        ideals = list(enumerate_pattern_ideals(n))
        assert ideals[0].members == frozenset()
        for ideal in ideals:
            validate_pattern_ideal(n, ideal.members)


def test_enumeration_leaves_no_cyclic_garbage():
    # a recursive closure would be a function-cell cycle per call, left for
    # the cyclic collector
    gc.collect()
    gc.disable()
    try:
        assert len(list(enumerate_pattern_ideals(6))) == 132
        assert gc.collect() == 0
    finally:
        gc.enable()


def _closed(subset, n):
    for i, j in subset:
        if i + 1 <= n and (i + 1, j) not in subset:
            return False
        if j - 1 >= 1 and (i, j - 1) not in subset:
            return False
    return True


def test_enumeration_matches_brute_force_n4():
    cells = [tuple(p) for p in all_pairs(4)]
    expected = set()
    for bits in range(1 << len(cells)):
        subset = frozenset(c for k, c in enumerate(cells) if bits >> k & 1)
        if _closed(subset, 4):
            expected.add(frozenset(Pair(*c) for c in subset))
    assert {ideal.members for ideal in enumerate_pattern_ideals(4)} == expected


def test_sampling_is_deterministic():
    first = sample_pattern_ideals(7, 30, 9)
    second = sample_pattern_ideals(7, 30, 9)
    assert [i.members for i in first] == [i.members for i in second]
    assert len({i.members for i in first}) == 30
    with pytest.raises(ValueError):
        sample_pattern_ideals(3, 6, 0)


def test_sampling_refuses_a_negative_count():
    assert sample_pattern_ideals(5, 0, 0) == []
    with pytest.raises(ValueError, match="count"):
        sample_pattern_ideals(5, -1, 0)


# --- deterministic randomness ------------------------------------------------------


def test_counter_rand_is_frozen():
    assert counter_rand(0, 1, 2) == 13102523520015308824
    assert counter_rand(42) == 13679457532755275413


def test_random_form_contract():
    algebra = QuotientAlgebra.from_ideal(validate_pattern_ideal(5, []))
    again = random_form(algebra, 4, 77)
    assert random_form(algebra, 4, 77).values == again.values
    assert random_form(algebra, 4, 78).values != again.values
    assert all(abs(v) <= 1 for v in random_form(algebra, 1, 3).lookup.values())


def test_random_unipotent_is_reproducible():
    assert random_unipotent(5, 6, 11) == random_unipotent(5, 6, 11)
    assert random_unipotent(5, 6, 11) != random_unipotent(5, 6, 12)
