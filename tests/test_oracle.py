"""Brute-force oracles: skew-form ranks, Jacobians, invariance under the action."""

import copy
import itertools
import logging
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitdiag.core import (
    DimensionMismatchError,
    LinearForm,
    Pair,
    QuotientAlgebra,
    bracket,
    counter_rand,
    enumerate_pattern_ideals,
    random_form,
    validate_pattern_ideal,
)
from orbitdiag import oracle
from orbitdiag.diagram import build_diagram, max_orbit_dim
from orbitdiag.invariants import build_invariants
from orbitdiag.oracle import (
    SkewMatrix,
    _P,
    _gradient,
    _modular_rank,
    _reduce,
    _term_rank,
    exact_rank,
    generic_jacobian_rank,
    index_oracle,
    invariance_oracle,
    jacobian_rank,
    skew_form_matrix,
)
from orbitdiag.polyring import MissingCoordinateError, Polynomial, evaluate, partial_derivative

UT3 = validate_pattern_ideal(3, [])
UT4 = validate_pattern_ideal(4, [])
EXAMPLE7 = validate_pattern_ideal(7, [(5, 1), (6, 1), (7, 1), (7, 2)])
# the term rank of B_f's full pattern exceeds the generic rank on these: 12 > 10 and 18 > 16
LOOSE6 = validate_pattern_ideal(6, [(6, 1)])
LOOSE7 = validate_pattern_ideal(7, [(7, 1)])


def y(row, col):
    return Polynomial.variable(Pair(row, col))


def form(ideal, values):
    algebra = QuotientAlgebra.from_ideal(ideal)
    return LinearForm.from_dict(
        algebra, {Pair(*k): Fraction(v) for k, v in values.items()}
    )


def sparse(rows):
    """The matrix of the given dense rows, as a SkewMatrix of their nonzero cells."""
    return SkewMatrix(tuple({c: x for c, x in enumerate(row) if x} for row in rows))


def dense(m):
    """The dense table of a SkewMatrix, with a 0 for each cell its rows leave out."""
    return tuple(tuple(row.get(c, 0) for c in range(m.dim)) for row in m.rows)


# --- the pairing table --------------------------------------------------------


def test_skew_matrix_on_the_heisenberg_algebra():
    f = form(UT3, {(3, 1): 1})
    m = skew_form_matrix(f, UT3)
    assert m.dim == 3
    # basis order (3,1), (2,1), (3,2); only [y21, y32] = -y31 pairs nontrivially
    assert dense(m) == (
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )
    assert exact_rank(m) == 2


def all_pairs_skew_entries(f, ideal):
    """The pairing table with a bracket for every ordered pair of the basis."""
    basis = f.algebra.basis
    values = f.lookup

    def entry(a, b):
        term = bracket(a, b, ideal)
        return term.coefficient * values.get(term.pair, 0)

    return tuple(tuple(entry(a, b) for b in basis) for a in basis)


def rational_form(algebra, seed):
    return LinearForm.from_dict(
        algebra,
        {
            pair: Fraction(counter_rand(seed, k, 0) % 19 - 9, counter_rand(seed, k, 1) % 9 + 1)
            for k, pair in enumerate(algebra.basis)
        },
    )


def seeded_ideal(n, seed):
    """A pattern ideal from seeded weakly increasing column thresholds."""
    thresholds, low = [], 2
    for col in range(1, n):
        low = max(low, col + 1)
        low += counter_rand(seed, n, col) % (n + 2 - low)
        thresholds.append(low)
    pairs = [(row, col) for col, r in enumerate(thresholds, start=1) for row in range(r, n + 1)]
    return validate_pattern_ideal(n, pairs)


def assert_skew_matches_all_pairs(ideal, seed):
    algebra = QuotientAlgebra.from_ideal(ideal)
    for f in (random_form(algebra, 1000, seed), rational_form(algebra, seed)):
        entries = dense(skew_form_matrix(f, ideal))
        reference = all_pairs_skew_entries(f, ideal)
        assert entries == reference, ideal
        assert [list(map(type, row)) for row in entries] == [
            list(map(type, row)) for row in reference
        ], ideal


def test_skew_build_matches_all_pairs_on_every_small_ideal():
    for n in range(1, 8):
        for position, ideal in enumerate(enumerate_pattern_ideals(n)):
            assert_skew_matches_all_pairs(ideal, counter_rand(n, position))


@pytest.mark.parametrize("n", [12, 20])
def test_skew_build_matches_all_pairs_on_seeded_ideals(n):
    ideals = [validate_pattern_ideal(n, [])] + [seeded_ideal(n, seed) for seed in range(3)]
    assert len(set(ideals)) > 2
    for seed, ideal in enumerate(ideals):
        assert_skew_matches_all_pairs(ideal, seed)


def test_skew_matrix_refuses_a_form_of_another_quotient():
    f = form(UT3, {(3, 1): 1})
    with pytest.raises(DimensionMismatchError):
        skew_form_matrix(f, validate_pattern_ideal(3, [(3, 1)]))


def test_skew_matrix_is_skew():
    f = random_form(QuotientAlgebra.from_ideal(EXAMPLE7), 50, 9)
    m = skew_form_matrix(f, EXAMPLE7)
    entries = dense(m)
    for a in range(m.dim):
        for b in range(m.dim):
            assert entries[a][b] == -entries[b][a]


# --- exact rank ------------------------------------------------------------------


def test_rank_basics():
    assert exact_rank(sparse([[0, 1], [-1, 0]])) == 2
    assert exact_rank(sparse([[0, 0], [0, 0]])) == 0
    assert exact_rank(sparse([])) == 0
    assert exact_rank(sparse([[1, 2, 3], [2, 4, 6]])) == 1
    assert exact_rank(sparse([[1, 2], [3, 4], [5, 6]])) == 2


def test_rank_clears_denominators():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(2, 3), Fraction(4, 9)],
    ]
    assert exact_rank(sparse(rows)) == 1
    assert exact_rank(sparse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])) == 2


def naive_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / lead
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def int_matrices(draw):
    height = draw(st.integers(1, 5))
    width = draw(st.integers(1, 5))
    return [
        [draw(st.integers(-9, 9)) for _ in range(width)] for _ in range(height)
    ]


@given(int_matrices())
def test_rank_matches_plain_elimination(rows):
    assert exact_rank(sparse(rows)) == naive_rank(rows)


@given(st.data())
def test_rank_matches_plain_elimination_on_rational_rows(data):
    height = data.draw(st.integers(1, 8), label="height")
    width = data.draw(st.integers(1, 8), label="width")
    zero_rows = data.draw(st.sets(st.integers(0, height - 1)), label="zero rows")
    zero_cols = data.draw(st.sets(st.integers(0, width - 1)), label="zero columns")
    entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
    rows = [
        [
            0 if r in zero_rows or c in zero_cols else data.draw(entry)
            for c in range(width)
        ]
        for r in range(height)
    ]
    assert exact_rank(sparse(rows)) == naive_rank(rows)


def test_rank_of_tall_wide_and_zero_shapes():
    assert exact_rank(sparse([[0, 0, 0]])) == 0
    assert exact_rank(sparse([[0], [0], [Fraction(2, 3)], [0]])) == 1
    assert exact_rank(sparse([[0, 1, 0, 0, 2], [0, 2, 0, 0, 4], [0, 0, 0, 0, 0]])) == 1
    assert exact_rank(sparse([[1, 0], [0, 1], [1, 1], [Fraction(1, 2), 3]])) == 2


def test_rank_drops_explicit_zeros():
    # SkewMatrix takes any sparse rows; a zero a caller stores is no entry
    assert exact_rank(SkewMatrix(({}, {0: 0, 1: -1}, {1: 2, 2: 0}))) == 1
    assert exact_rank(SkewMatrix(({0: 0},))) == 0


def test_rank_with_explicit_zeros_matches_the_rows_without_them():
    rng = random.Random(7)
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(5000):
        size = rng.randint(1, 5)
        rows = tuple(
            {c: rng.choice(entries) for c in sorted(rng.sample(range(size), rng.randint(0, size)))}
            for _ in range(size)
        )
        m = SkewMatrix(rows)
        without = SkewMatrix(tuple({c: x for c, x in row.items() if x} for row in rows))
        assert exact_rank(m) == exact_rank(without) == naive_rank(dense(m)), rows


def test_rank_of_a_rational_form_on_the_full_algebra_in_bounded_time():
    ideal = validate_pattern_ideal(20, [])
    algebra = QuotientAlgebra.from_ideal(ideal)
    m = skew_form_matrix(rational_form(algebra, 20), ideal)
    start = time.perf_counter()
    assert exact_rank(m) == algebra.dim - 10
    assert _modular_rank(m) == algebra.dim - 10
    assert time.perf_counter() - start < 2


@st.composite
def combination_rows(draw):
    """Rows that are small integer combinations of two or three base rows,
    with some of them repeated or negated: most cancel to nothing."""
    width = draw(st.integers(1, 6))
    base = st.lists(st.integers(-5, 5), min_size=width, max_size=width)
    bases = draw(st.lists(base, min_size=2, max_size=3))
    coefficients = st.lists(st.integers(-3, 3), min_size=len(bases), max_size=len(bases))
    rows = [
        [sum(k * b[c] for k, b in zip(ks, bases)) for c in range(width)]
        for ks in draw(st.lists(coefficients, min_size=1, max_size=8))
    ]
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from([1, -1, 2, -3])), max_size=4))
    return rows + [[sign * x for x in rows[r]] for r, sign in copies]


@given(combination_rows())
def test_rows_that_cancel_to_nothing_mid_elimination(rows):
    m = sparse(rows)
    assert exact_rank(m) == _modular_rank(m) == naive_rank(rows)


def test_ranks_leave_their_arguments_unchanged():
    # compared item by item in order, so a reordered or rescaled row shows
    algebra = QuotientAlgebra.from_ideal(EXAMPLE7)
    matrices = [
        skew_form_matrix(random_form(algebra, 1000, 7), EXAMPLE7),
        skew_form_matrix(rational_form(algebra, 7), EXAMPLE7),
        SkewMatrix(({0: 6, 1: 0, 2: 4}, {0: 0}, {1: Fraction(3, 2), 2: 0})),
    ]
    for m in matrices:
        before = copy.deepcopy(m)
        exact_rank(m)
        _modular_rank(m)
        assert [list(row.items()) for row in m.rows] == [list(row.items()) for row in before.rows]
    zs = build_invariants(build_diagram(EXAMPLE7))
    f = rational_form(algebra, 8)
    zs_before, f_before = copy.deepcopy(zs), copy.deepcopy(f)
    jacobian_rank(zs, f)
    assert [list(z.terms.items()) for z in zs] == [list(z.terms.items()) for z in zs_before]
    assert f == f_before


def test_skew_rank_is_even():
    for ideal, seed in [(UT3, 0), (UT4, 1), (EXAMPLE7, 2)]:
        algebra = QuotientAlgebra.from_ideal(ideal)
        for trial in range(5):
            f = random_form(algebra, 20, counter_rand(seed, trial))
            assert exact_rank(skew_form_matrix(f, ideal)) % 2 == 0


# --- rank mod p -----------------------------------------------------------------------


def test_modular_rank_equals_exact_rank_on_every_small_ideal():
    for n in range(1, 8):
        for position, ideal in enumerate(enumerate_pattern_ideals(n)):
            f = random_form(QuotientAlgebra.from_ideal(ideal), 1000, counter_rand(n, position))
            m = skew_form_matrix(f, ideal)
            assert _modular_rank(m) == exact_rank(m), ideal


@pytest.mark.parametrize("n", [10, 12, 16])
def test_modular_rank_equals_exact_rank_on_the_full_algebra(n):
    ideal = validate_pattern_ideal(n, [])
    f = random_form(QuotientAlgebra.from_ideal(ideal), 1000, n)
    m = skew_form_matrix(f, ideal)
    assert _modular_rank(m) == exact_rank(m) == m.dim - n // 2


def test_modular_rank_of_the_full_ut40_is_the_closed_form():
    ideal = validate_pattern_ideal(40, [])
    algebra = QuotientAlgebra.from_ideal(ideal)
    m = skew_form_matrix(random_form(algebra, 1000, 40), ideal)
    assert _modular_rank(m) == algebra.dim - 40 // 2


@pytest.mark.parametrize("n", [12, 16, 20])
def test_sparse_modular_rank_equals_exact_rank_on_large_ideals(n):
    ideals = [validate_pattern_ideal(n, [])] + [seeded_ideal(n, seed) for seed in range(3)]
    for seed, ideal in enumerate(ideals):
        algebra = QuotientAlgebra.from_ideal(ideal)
        for f in (random_form(algebra, 1000, seed), rational_form(algebra, seed)):
            m = skew_form_matrix(f, ideal)
            rank = exact_rank(m)
            assert _modular_rank(m) == rank, ideal
            if not ideal.members:
                assert rank == algebra.dim - n // 2


def eliminations(monkeypatch):
    """The modulus of every `_eliminate` call, 0 for an elimination over Q."""
    moduli = []
    eliminate = oracle._eliminate

    def counted(rows, modulus=0):
        moduli.append(modulus)
        return eliminate(rows, modulus)

    monkeypatch.setattr(oracle, "_eliminate", counted)
    return moduli


def test_exact_rank_of_a_dense_ut40_form_is_certified_mod_p(monkeypatch):
    # the rank mod p meets the term rank, so the elimination over Q never runs
    ideal = validate_pattern_ideal(40, [])
    algebra = QuotientAlgebra.from_ideal(ideal)
    m = skew_form_matrix(random_form(algebra, 1000, 40), ideal)
    moduli = eliminations(monkeypatch)
    start = time.perf_counter()
    assert exact_rank(m) == 760
    assert time.perf_counter() - start < 10
    assert moduli == [_P]


def test_exact_rank_falls_back_to_q_where_the_certificate_fails(monkeypatch):
    algebra = QuotientAlgebra.from_ideal(LOOSE6)
    ones = skew_form_matrix(LinearForm.from_dict(algebra, dict.fromkeys(algebra.basis, 1)), LOOSE6)
    cases = [
        ones,  # a loose pattern: term rank 12, rank 10
        sparse([[1, 2], [2, 4]]),  # term rank 2, rank 1
        sparse([[Fraction(1, _P), Fraction(2, _P)], [1, 2]]),  # denominators with no value mod p
        sparse([[_P, 1], [0, 1]]),  # rank 1 mod p, 2 over Q
        sparse([[3 * _P, _P, 1], [0, 0, 1], [1, 2, 0]]),
    ]
    for m in cases:
        moduli = eliminations(monkeypatch)
        assert exact_rank(m) == naive_rank(dense(m)), dense(m)
        assert moduli == [_P, 0], dense(m)


def test_exact_rank_takes_any_denominator():
    # the rows are cleared before the rank mod p, so a denominator p raises nothing
    for rows in ([[Fraction(1, _P), 1], [0, 1]], [[Fraction(1, _P)]], [[Fraction(3, _P), 0], [Fraction(1, 2), 0]]):
        assert exact_rank(sparse(rows)) == naive_rank(rows)


@given(st.data())
def test_modular_rank_equals_exact_rank_on_rational_rows(data):
    height = data.draw(st.integers(1, 5))
    width = data.draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    m = sparse([[data.draw(entry) for _ in range(width)] for _ in range(height)])
    assert _modular_rank(m) == exact_rank(m)


def test_a_denominator_divisible_by_p_is_refused():
    with pytest.raises(ValueError):
        _modular_rank(sparse([[Fraction(1, _P)]]))


IDEALS_UP_TO_5 = [ideal for n in range(2, 6) for ideal in enumerate_pattern_ideals(n)]


@st.composite
def gradient_cases(draw):
    ideal = draw(st.sampled_from(IDEALS_UP_TO_5))
    algebra = QuotientAlgebra.from_ideal(ideal)
    variables = list(algebra.basis)
    z = Polynomial()
    for _ in range(draw(st.integers(0, 4))):
        term = Polynomial.constant(Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))
        if variables:
            exponents = st.dictionaries(st.sampled_from(variables), st.integers(1, 4), max_size=4)
            for pair, e in draw(exponents).items():
                term = term * Polynomial.variable(pair) ** e
        z = z + term
    value = st.one_of(st.just(0), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
    f = LinearForm.from_dict(algebra, {pair: draw(value) for pair in variables})
    return z, f


@given(gradient_cases())
def test_gradient_walk_matches_the_partial_derivatives(case):
    z, f = case
    basis = f.algebra.basis
    values = {pair: _reduce(v) for pair, v in f.values}
    columns = {pair: i for i, pair in enumerate(basis)}
    partials = [_reduce(evaluate(partial_derivative(z, eta), f)) for eta in basis]
    assert _gradient(z, values, columns) == {c: x for c, x in enumerate(partials) if x}


def test_gradient_shares_powers_across_terms():
    # y[3,1] at exponents 1, 2 and 3 over several terms, y[3,1]^2 in two of
    # them, at a rational form: sum of c * e_i * v_i^(e_i - 1) * prod of the
    # other v^e, term by term, reduced mod p at the end
    z = Polynomial({
        ((Pair(3, 1), 3), (Pair(4, 2), 1)): Fraction(1, 2),
        ((Pair(3, 1), 2),): Fraction(-2, 3),
        ((Pair(3, 1), 2), (Pair(4, 2), 2)): 5,
        ((Pair(3, 1), 1), (Pair(4, 1), 1)): -1,
    })
    f = form(UT4, {(3, 1): "-3/2", (4, 2): "5/7", (4, 1): 2})
    basis = f.algebra.basis
    columns = {pair: i for i, pair in enumerate(basis)}
    expected = [Fraction(0)] * len(basis)
    for m, c in z.terms.items():
        for pair, e in m:
            partial = c * e * f.lookup.get(pair, 0) ** (e - 1)
            for other, k in m:
                if other != pair:
                    partial *= f.lookup.get(other, 0) ** k
            expected[columns[pair]] += partial
    values = {pair: _reduce(v) for pair, v in f.values}
    assert _gradient(z, values, columns) == {c: r for c, x in enumerate(expected) if (r := _reduce(x))}


def test_gradient_refuses_a_missing_coordinate_in_a_later_term():
    # y[2,1]^2 is looked up for the first term and reused; y[3,1], outside
    # the quotient, first appears in the second term
    ideal = validate_pattern_ideal(3, [(3, 1)])
    f = form(ideal, {(2, 1): 3, (3, 2): 1})
    z = Polynomial({((Pair(2, 1), 2),): 1, ((Pair(2, 1), 2), (Pair(3, 1), 1)): 1})
    values = {pair: _reduce(v) for pair, v in f.values}
    with pytest.raises(MissingCoordinateError) as info:
        _gradient(z, values, f.algebra.columns)
    assert info.value.pair == Pair(3, 1)


def test_jacobian_rank_refuses_a_variable_outside_the_quotient():
    ideal = validate_pattern_ideal(3, [(3, 1)])
    f = form(ideal, {(2, 1): 1, (3, 2): 1})
    with pytest.raises(MissingCoordinateError):
        jacobian_rank([y(2, 1) * y(3, 1)], f)


def test_index_of_the_full_algebra_past_the_enumeration_limit():
    # the closed form index(ut(n)) = floor(n/2), past the n <= 8 sweep and in bounded time
    start = time.perf_counter()
    for n in (10, 12, 16, 20):
        dim = n * (n - 1) // 2
        assert index_oracle(validate_pattern_ideal(n, []), 1, 1000, n) == (n // 2, dim - n // 2)
    assert time.perf_counter() - start < 3


# --- term rank ----------------------------------------------------------------------


def brute_term_rank(pattern):
    """The most nonzero cells of a 0/1 pattern with no two in one row or column:
    the best over every assignment of distinct columns to the rows, taken on
    the transpose when there are more rows than columns."""
    if not pattern:
        return 0
    if len(pattern) > len(pattern[0]):
        pattern = list(zip(*pattern))
    assignments = itertools.permutations(range(len(pattern[0])), len(pattern))
    return max(sum(pattern[r][c] for r, c in enumerate(columns)) for columns in assignments)


def test_term_rank_matches_brute_force():
    # greedy matches row 0 to column 0 and leaves row 1 unmatched; an augmenting
    # path frees it.  In the second, greedy takes columns 0, 1, 2 and the path
    # from the last row runs three rows deep.
    patterns = [[[1, 1], [1, 0]], [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0]]]
    rng = random.Random(2024)
    for _ in range(300):
        height, width = rng.randint(0, 7), rng.randint(1, 7)
        density = rng.random()
        pattern = [[int(rng.random() < density) for _ in range(width)] for _ in range(height)]
        for r in rng.sample(range(height), height // 3):
            pattern[r] = [0] * width
        patterns.append(pattern)
    for pattern in patterns:
        rows = [{c: rng.choice([1, -2, Fraction(1, 3)]) for c, cell in enumerate(row) if cell} for row in pattern]
        assert _term_rank(rows) == brute_term_rank(pattern), pattern
    assert brute_term_rank(patterns[0]) == 2 and brute_term_rank(patterns[1]) == 4


def test_term_rank_of_the_full_ut100_pattern_is_the_closed_form():
    ideal = validate_pattern_ideal(100, [])
    algebra = QuotientAlgebra.from_ideal(ideal)
    ones = LinearForm.from_dict(algebra, dict.fromkeys(algebra.basis, 1))
    assert _term_rank(skew_form_matrix(ones, ideal).rows) == algebra.dim - 50


# --- the index oracle ---------------------------------------------------------------


def test_index_oracle_frozen_values():
    assert index_oracle(EXAMPLE7, 5, 1000, 42) == (5, 12)
    assert index_oracle(UT3, 3, 100, 0) == (1, 2)
    full = validate_pattern_ideal(3, [(2, 1), (3, 1), (3, 2)])
    assert index_oracle(full, 1, 10, 0) == (0, 0)


def reference_index_oracle(ideal, trials, bound, seed):
    """The oracle as first defined: the best rank mod p over every trial."""
    algebra = QuotientAlgebra.from_ideal(ideal)
    best = max(
        _modular_rank(skew_form_matrix(random_form(algebra, bound, counter_rand(seed, 0xF0, t)), ideal))
        for t in range(trials)
    )
    return algebra.dim - best, best


def test_index_oracle_equals_its_definition_on_every_small_ideal():
    ideals = [ideal for n in range(1, 7) for ideal in enumerate_pattern_ideals(n)]
    for seed in (0, 1):
        for ideal in ideals + [LOOSE6, LOOSE7]:
            # bound 2 makes forms with zero values, so some trials fall short
            for trials, bound in ((3, 2), (2, 1000)):
                expected = reference_index_oracle(ideal, trials, bound, seed)
                assert index_oracle(ideal, trials, bound, seed) == expected, (ideal, seed)


def test_index_oracle_stops_at_the_term_rank(monkeypatch):
    calls = []
    modular_rank = oracle._modular_rank

    def counted(matrix):
        calls.append(matrix)
        return modular_rank(matrix)

    monkeypatch.setattr(oracle, "_modular_rank", counted)
    assert index_oracle(validate_pattern_ideal(8, []), 5, 1000, 3) == (4, 24)
    assert len(calls) == 1
    calls.clear()
    # the term rank 12 is above the generic rank 10, so every trial runs
    assert index_oracle(LOOSE6, 5, 1000, 3) == (4, 10)
    assert len(calls) == 5


def test_index_oracle_is_deterministic():
    assert index_oracle(UT4, 4, 50, 17) == index_oracle(UT4, 4, 50, 17)


def test_index_oracle_rejects_zero_trials():
    with pytest.raises(ValueError):
        index_oracle(UT3, 0, 10, 0)


def test_invariance_oracle_rejects_zero_trials():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            invariance_oracle([], UT3, trials, 1)


def test_sampled_rank_never_exceeds_the_diagram_bound():
    for ideal in [UT4, EXAMPLE7, validate_pattern_ideal(5, [(5, 1), (4, 1)])]:
        top = max_orbit_dim(build_diagram(ideal))
        algebra = QuotientAlgebra.from_ideal(ideal)
        for trial in range(8):
            f = random_form(algebra, 30, counter_rand(5, trial))
            assert exact_rank(skew_form_matrix(f, ideal)) <= top


# --- Jacobians ---------------------------------------------------------------------


def test_jacobian_rank_by_hand():
    zs = build_invariants(build_diagram(UT4))
    f = form(UT4, {(2, 1): 7, (3, 1): 2, (3, 2): 5, (4, 1): 1, (4, 2): 3, (4, 3): 11})
    assert jacobian_rank(zs, f) == 2


def test_jacobian_rank_of_a_single_linear_invariant():
    f = form(UT3, {(2, 1): 0, (3, 1): 0, (3, 2): 0})
    assert jacobian_rank([y(3, 1)], f) == 1
    assert jacobian_rank([], f) == 0


def exact_jacobian(zs, f):
    """The Jacobian of the zs at f over Q, one evaluated partial derivative per cell."""
    basis = f.algebra.basis
    rows = tuple(
        {c: x for c, eta in enumerate(basis) if (x := evaluate(partial_derivative(z, eta), f))}
        for z in zs
    )
    return SkewMatrix(rows)


def test_jacobian_rank_equals_the_exact_rank_of_the_exact_jacobian_on_every_small_ideal():
    # small rational entries: no nonzero minor of these Jacobians is a multiple of p
    for n in range(1, 6):
        for position, ideal in enumerate(enumerate_pattern_ideals(n)):
            zs = build_invariants(build_diagram(ideal))
            algebra = QuotientAlgebra.from_ideal(ideal)
            for trial in range(2):
                f = rational_form(algebra, counter_rand(n, position, trial))
                assert jacobian_rank(zs, f) == exact_rank(exact_jacobian(zs, f)), ideal


@given(gradient_cases())
def test_jacobian_rank_equals_the_exact_rank_of_the_exact_jacobian(case):
    z, f = case
    assert jacobian_rank([z], f) == exact_rank(exact_jacobian([z], f))


def test_generic_jacobian_matches_the_index():
    zs = build_invariants(build_diagram(EXAMPLE7))
    assert generic_jacobian_rank(zs, EXAMPLE7, 7) == 5


def test_generic_jacobian_logs_nothing_on_success(caplog):
    zs = build_invariants(build_diagram(UT4))
    with caplog.at_level(logging.WARNING, logger="orbitdiag.oracle"):
        assert generic_jacobian_rank(zs, UT4, 0) == 2
    assert not caplog.records


def test_generic_jacobian_retries_and_logs_on_dependence(caplog):
    dependent = [y(2, 1), y(2, 1) * y(2, 1)]
    with caplog.at_level(logging.WARNING, logger="orbitdiag.oracle"):
        assert generic_jacobian_rank(dependent, UT3, 0, bound=10) == 1
    assert len(caplog.records) == 6
    assert all("resampling" in record.getMessage() for record in caplog.records)


# --- invariance ----------------------------------------------------------------------


def test_invariance_of_constructed_invariants():
    zs4 = build_invariants(build_diagram(UT4))
    assert invariance_oracle(zs4, UT4, 20, 3)
    zs7 = build_invariants(build_diagram(EXAMPLE7))
    assert invariance_oracle(zs7, EXAMPLE7, 20, 11)


def test_invariance_rejects_a_moving_coordinate():
    assert not invariance_oracle([y(2, 1)], UT3, 20, 0)


def test_invariance_of_nothing_is_vacuous():
    assert invariance_oracle([], UT3, 5, 0)
