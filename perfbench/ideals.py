"""Seeded uniform pattern ideals for any n, without enumerating them.

A pattern ideal of ut(n) is fixed by one threshold per column, the first
row of the column that belongs to the ideal (n+1 for an empty column), and
lower-left closure means the thresholds weakly increase.  Those vectors
are in bijection with Dyck paths of semilength n: with h_j the number of
up-steps before the j-th down-step, the thresholds are r_j = h_j + 1 for
j = 1..n-1.  A uniform Dyck path comes from the cycle lemma
(Dvoretzky-Motzkin): of the 2n+1 rotations of a shuffled word of n ups
and n+1 downs exactly one keeps every proper prefix sum non-negative.
"""

from __future__ import annotations

import random

from orbitdiag import PatternIdeal, validate_pattern_ideal

MAX_N = 20


def threshold_vector(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniform weakly increasing vector r with j+1 <= r_j <= n+1."""
    word = [1] * n + [-1] * (n + 1)
    rng.shuffle(word)
    total, low, start = 0, 0, 0
    for position, step in enumerate(word, start=1):
        total += step
        if total < low:
            low, start = total, position
    path = word[start:] + word[:start]
    thresholds, ups = [], 0
    for step in path[:-1]:
        if step == 1:
            ups += 1
        else:
            thresholds.append(ups + 1)
    return tuple(thresholds[: n - 1])


def ideal_from_thresholds(n: int, thresholds: tuple[int, ...]) -> PatternIdeal:
    pairs = [(i, j) for j, r in enumerate(thresholds, start=1) for i in range(r, n + 1)]
    return validate_pattern_ideal(n, pairs)


def random_ideals(n: int, count: int, seed: int) -> list[PatternIdeal]:
    """`count` uniform pattern ideals of ut(n), reproducible from the seed."""
    if not 2 <= n <= MAX_N:
        raise ValueError(f"n must be in 2..{MAX_N}, got {n}")
    rng = random.Random(f"ideals:{n}:{seed}")
    return [ideal_from_thresholds(n, threshold_vector(n, rng)) for _ in range(count)]
