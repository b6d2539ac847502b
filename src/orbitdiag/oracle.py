"""Brute-force cross-checks, independent of the diagram machinery.

Everything here works from first principles: the skew form B_f(x, y) =
f([x, y]) evaluated at random rational points, exact integer rank, numeric
Jacobians, and direct comparison of invariant values before and after a
group element moves the form.  Agreement with the combinatorial answers is
what the test suite is really about.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (
    LinearForm,
    PatternIdeal,
    QuotientAlgebra,
    bracket,
    coadjoint_act,
    counter_rand,
    random_form,
    random_unipotent,
)
from .polyring import Polynomial, evaluate, partial_derivative

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


@dataclass(frozen=True)
class SkewMatrix:
    """The pairing table f([y_a, y_b]) over the surviving basis."""

    dim: int
    entries: tuple[tuple[int | Fraction, ...], ...]


def skew_form_matrix(f: LinearForm, ideal: PatternIdeal) -> SkewMatrix:
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
        pivot_row = next((r for r in range(rank, height) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, height):
            for c in range(col + 1, width):
                rows[r][c] = (pivot * rows[r][c] - rows[r][col] * rows[rank][c]) // prev
            rows[r][col] = 0
        prev = pivot
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
    generic value for any reasonable number of trials.  Deterministic in
    the seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    algebra = QuotientAlgebra.from_ideal(ideal)
    best = 0
    for trial in range(trials):
        f = random_form(algebra, bound, counter_rand(seed, 0xF0, trial))
        best = max(best, exact_rank(skew_form_matrix(f, ideal)))
    return algebra.dim - best, best


def jacobian_rank(zs: list[Polynomial], f: LinearForm) -> int:
    """Rank of the matrix of gradients of the zs evaluated at f."""
    basis = f.algebra.basis
    rows = [
        [evaluate(partial_derivative(z, eta), f) for eta in basis] for z in zs
    ]
    return exact_rank(rows)


def generic_jacobian_rank(
    zs: list[Polynomial],
    ideal: PatternIdeal,
    seed: int,
    bound: int = 1000,
    retries: int = 5,
) -> int:
    """Jacobian rank at a random form, resampling on rank deficiency.

    A random point may accidentally hit the locus where the gradients
    degenerate; full rank anywhere certifies independence, so deficiency
    triggers up to `retries` fresh points.  Every retry is logged — a run
    that exhausts them is evidence of genuine dependence, not bad luck.
    """
    algebra = QuotientAlgebra.from_ideal(ideal)
    target = len(zs)
    best = 0
    for attempt in range(retries + 1):
        f = random_form(algebra, bound, counter_rand(seed, 0x1A, attempt))
        rank = jacobian_rank(zs, f)
        best = max(best, rank)
        if best == target:
            return best
        log.warning(
            "jacobian rank %d < %d at attempt %d (seed %d); resampling",
            rank,
            target,
            attempt,
            seed,
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
