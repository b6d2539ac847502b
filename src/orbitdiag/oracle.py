"""Brute-force cross-checks, independent of the diagram machinery.

Everything here works from first principles: the skew form B_f(x, y) =
f([x, y]) evaluated at random integer points, numeric Jacobians, and direct
comparison of invariant values before and after a group element moves the
form.  Agreement with the combinatorial answers is what the test suite is
really about.

The sampled ranks (`index_oracle`, `jacobian_rank`) are taken modulo the
prime p = 2^61 - 1.  For a matrix whose denominators are prime to p, every
minor reduced mod p is the reduction of the rational minor, so a minor that
vanishes over Q vanishes mod p: the rank mod p is at most the rank over Q.
The index oracle's max over trials keeps its one-sided meaning, and a full
Jacobian rank mod p still certifies independence.  `exact_rank` stays
exact (fraction-free Bareiss elimination) for callers that need the rank
over Q of one given form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (
    DimensionMismatchError,
    LinearForm,
    PatternIdeal,
    QuotientAlgebra,
    bracket,
    coadjoint_act,
    counter_rand,
    random_form,
    random_unipotent,
)
from .polyring import MissingCoordinateError, Polynomial, evaluate

__all__ = [
    "SkewMatrix",
    "skew_form_matrix",
    "exact_rank",
    "index_oracle",
    "jacobian_rank",
    "generic_jacobian_rank",
    "invariance_oracle",
]

log = logging.getLogger("orbitdiag.oracle")

_P = (1 << 61) - 1
_RETRIES = 5


@dataclass(frozen=True)
class SkewMatrix:
    """The pairing table f([y_a, y_b]) over the surviving basis."""

    dim: int
    entries: tuple[tuple[int | Fraction, ...], ...]


def skew_form_matrix(f: LinearForm, ideal: PatternIdeal) -> SkewMatrix:
    if f.algebra.ideal != ideal:
        raise DimensionMismatchError("form and ideal must belong to the same quotient")
    basis = f.algebra.basis
    values = f.as_dict()
    rows = []
    for a in basis:
        row = []
        for b in basis:
            term = bracket(a, b, ideal)
            row.append(term.coefficient * values.get(term.pair, 0))
        rows.append(tuple(row))
    return SkewMatrix(len(basis), tuple(rows))


def _integer_rows(matrix) -> list[list[int]]:
    rows = matrix.entries if isinstance(matrix, SkewMatrix) else matrix
    cleared = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (scale // x.denominator) for x in row])
    return cleared


def exact_rank(matrix) -> int:
    """Rank over the rationals, by fraction-free elimination.

    Accepts a SkewMatrix or any rectangular iterable of rational rows.
    Denominators are cleared per row (rank is scale-invariant), then a
    Bareiss-style sweep keeps every intermediate entry an exact integer:
    the two-by-two cross update divided by the previous pivot is a minor
    of the original matrix, so the division is always exact.
    """
    rows = _integer_rows(matrix)
    if not rows or not rows[0]:
        return 0
    height, width = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(width):
        found = next((r for r in range(rank, height) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        pivot_row = rows[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, height):
            row = rows[r]
            lead = row[col]
            if lead:
                rows[r] = [(pivot * x - lead * y) // prev for x, y in zip(row, pivot_row)]
            else:
                rows[r] = [pivot * x // prev for x in row]
        prev = pivot
        rank += 1
        if rank == height:
            break
    return rank


def _reduce(x) -> int:
    """x mod p, for an int or a rational a/b with b prime to p (a * b^-1)."""
    if isinstance(x, int):
        return x % _P
    den = x.denominator % _P
    if not den:
        raise ValueError(f"{x} has no value mod 2^61 - 1")
    return x.numerator * pow(den, -1, _P) % _P


def _modular_rank(rows) -> int:
    """Rank mod p of rational rows, by Gaussian elimination over GF(p).

    A lower bound for the rank over Q (see the module docstring), equal to
    it unless p divides every maximal nonzero minor.
    """
    rows = [[_reduce(x) for x in row] for row in rows]
    if not rows or not rows[0]:
        return 0
    height, width = len(rows), len(rows[0])
    rank = 0
    # an updated row keeps only its columns from the pivot's on, so each
    # column is read at its offset from the end, the same in every row
    for col in range(-width, 0):
        found = next((r for r in range(rank, height) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        tail = rows[rank][col:]
        inverse = pow(tail[0], -1, _P)
        for r in range(rank + 1, height):
            row = rows[r]
            factor = row[col] * inverse % _P
            if factor:
                rows[r] = [(x - factor * y) % _P for x, y in zip(row[col:], tail)]
        rank += 1
        if rank == height:
            break
    return rank


def index_oracle(
    ideal: PatternIdeal, trials: int, bound: int, seed: int
) -> tuple[int, int]:
    """(index, generic rank) of the quotient, via random sampling.

    Evaluates the skew form at `trials` random integer points and takes the
    best rank seen; rank deficiency at every sampled point would require
    each point to land in a proper closed subvariety, so the max is the
    generic value for any reasonable number of trials.  Each rank is taken
    mod p = 2^61 - 1, which never exceeds the rank over Q, so the max stays
    a lower bound for the generic rank and the index it gives an upper
    bound.  Deterministic in the seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    algebra = QuotientAlgebra.from_ideal(ideal)
    best = 0
    for trial in range(trials):
        f = random_form(algebra, bound, counter_rand(seed, 0xF0, trial))
        best = max(best, _modular_rank(skew_form_matrix(f, ideal).entries))
    return algebra.dim - best, best


def _gradient(z: Polynomial, values: dict, columns: dict) -> list[int]:
    """The gradient of z at a point, mod p, in one walk over z's terms.

    `values` maps each coordinate to its value mod p and `columns` to its
    position in the gradient.  For a term c * v_1^e_1 ... v_k^e_k, the
    partial in v_i is the product of the other factors' powers (a prefix
    product times a suffix product, so a zero coordinate needs no
    division) times c * e_i * v_i^(e_i - 1).
    """
    gradient = [0] * len(columns)
    for monomial, c in z.terms.items():
        cols, powers, slopes = [], [], []
        for pair, e in monomial:
            col = columns.get(pair)
            if col is None:
                raise MissingCoordinateError(pair)
            v = values.get(pair, 0)
            cols.append(col)
            if e == 1:
                powers.append(v)
                slopes.append(1)
            else:
                lower = pow(v, e - 1, _P)
                powers.append(lower * v % _P)
                slopes.append(e * lower)
        prefix = [_reduce(c)]
        for power in powers[:-1]:
            prefix.append(prefix[-1] * power % _P)
        suffix = 1
        for k in range(len(cols) - 1, -1, -1):
            gradient[cols[k]] += prefix[k] * suffix * slopes[k]
            suffix = suffix * powers[k] % _P
    return [g % _P for g in gradient]


def jacobian_rank(zs: list[Polynomial], f: LinearForm) -> int:
    """Rank mod p = 2^61 - 1 of the matrix of gradients of the zs at f.

    At most the rank over Q (see the module docstring), so a full rank
    still certifies that the zs are independent.  Each gradient is taken
    in one walk over its z's terms; no partial derivative is built.
    """
    values = {pair: _reduce(v) for pair, v in f.values}
    columns = {pair: i for i, pair in enumerate(f.algebra.basis)}
    return _modular_rank(_gradient(z, values, columns) for z in zs)


def generic_jacobian_rank(
    zs: list[Polynomial], ideal: PatternIdeal, seed: int, bound: int = 1000
) -> int:
    """Jacobian rank at a random form, resampling on rank deficiency.

    A random point may accidentally hit the locus where the gradients
    degenerate; full rank anywhere certifies independence, so deficiency
    triggers up to `_RETRIES` fresh points.  Every retry is logged — a run
    that exhausts them is evidence of genuine dependence, not bad luck.
    """
    algebra = QuotientAlgebra.from_ideal(ideal)
    target = len(zs)
    best = 0
    for attempt in range(_RETRIES + 1):
        f = random_form(algebra, bound, counter_rand(seed, 0x1A, attempt))
        rank = jacobian_rank(zs, f)
        best = max(best, rank)
        if best == target:
            return best
        log.warning(
            "jacobian rank mod p %d < %d at attempt %d (seed %d); resampling",
            rank, target, attempt, seed,
        )
    return best


def invariance_oracle(
    zs: list[Polynomial], ideal: PatternIdeal, trials: int, seed: int
) -> bool:
    """Are the z's constant along random coadjoint moves, exactly?

    For each trial a random form f and group element g are drawn and every
    z is evaluated at f and at the moved form; any mismatch is a failure.
    """
    algebra = QuotientAlgebra.from_ideal(ideal)
    for trial in range(trials):
        f = random_form(algebra, 100, counter_rand(seed, 0xAD, trial, 0))
        g = random_unipotent(ideal.n, 5, counter_rand(seed, 0xAD, trial, 1))
        moved = coadjoint_act(g, f, ideal)
        for z in zs:
            if evaluate(z, f) != evaluate(z, moved):
                return False
    return True
