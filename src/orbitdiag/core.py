"""Base layer: root positions, pattern ideals, structure constants, forms.

Scalars are exact: ints, or `fractions.Fraction` where not integral, so all
downstream checks are equality checks, never tolerance checks.

The algebra under study is the space of strictly lower-triangular n x n
matrices with the commutator bracket.  A basis vector ``y[i,j]`` sits at
row i, column j (i > j); the set of all such positions is ``A``.  A
*pattern ideal* is the span of the basis vectors indexed by a lower-left
closed subset M of A; the quotient by it is the algebra whose coadjoint
geometry the rest of the package computes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from operator import mul
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Pair",
    "PatternIdeal",
    "QuotientAlgebra",
    "LinearForm",
    "UnipotentElement",
    "SignedTerm",
    "OutOfRangeError",
    "NotAnIdealError",
    "DimensionMismatchError",
    "MissingCoordinateError",
    "ConsistencyError",
    "all_pairs",
    "succ_key",
    "order_gt",
    "validate_pattern_ideal",
    "bracket",
    "coadjoint_act",
    "random_form",
    "random_unipotent",
    "enumerate_pattern_ideals",
    "sample_pattern_ideals",
    "counter_rand",
]


class Pair(NamedTuple):
    """A strictly lower-triangular matrix position (row > col)."""

    row: int
    col: int


class OutOfRangeError(ValueError):
    """A pair is not a strictly lower-triangular position within n, or lies in the ideal."""

    def __init__(self, pair: Pair, n: int, in_ideal: bool = False):
        self.pair = pair
        self.n = n
        reason = ("lies in the ideal, where every form vanishes" if in_ideal
                  else f"is not strictly lower-triangular in size {n}")
        super().__init__(f"pair {tuple(pair)} {reason}")


class NotAnIdealError(ValueError):
    """The given position set is not lower-left closed."""

    def __init__(self, pair: Pair, missing: Pair):
        self.pair = pair
        self.missing = missing
        super().__init__(
            f"set is not an ideal: {tuple(pair)} present but closure requires {tuple(missing)}"
        )


class DimensionMismatchError(ValueError):
    pass


class MissingCoordinateError(KeyError):
    def __init__(self, pair: Pair):
        self.pair = pair
        super().__init__(f"no coordinate y[{pair[0]},{pair[1]}] in the target algebra")


class ConsistencyError(RuntimeError):
    """A guaranteed fact failed on an object built without validation, or a bug;
    the base of every failed check, which the command line exits 1 on.
    Not a ValueError: the command line reports those as bad input."""


@cache
def all_pairs(n: int) -> tuple[Pair, ...]:
    """All positions of A for size n, greatest first in the column order."""
    return tuple(Pair(i, j) for j in range(1, n) for i in range(n, j, -1))


def succ_key(pair: Pair) -> tuple[int, int]:
    """Sort key under which ascending order lists A from greatest to least.

    The total order: positions in an earlier column are greater; within a
    column the larger row is greater.  So (n,1) > (n-1,1) > ... > (2,1) >
    (n,2) > ... > (n,n-1).
    """
    return (pair.col, -pair.row)


def order_gt(a: Pair, b: Pair) -> bool:
    """True iff position a is strictly greater than b in the column order."""
    return succ_key(a) < succ_key(b)


class PatternIdeal(NamedTuple):
    """A validated lower-left closed subset M of A (use validate_pattern_ideal)."""

    n: int
    members: frozenset[Pair]

    @property
    def dim_quotient(self) -> int:
        return self.n * (self.n - 1) // 2 - len(self.members)


def validate_pattern_ideal(n: int, pairs: Iterable[Pair]) -> PatternIdeal:
    """Check bounds and lower-left closure; return the validated ideal.

    Closure: every member must also have its lower neighbour (row+1, col)
    and its left neighbour (row, col-1) in the set, whenever those stay
    inside A.  This is exactly the condition for the spanned subspace to
    be an ideal of the full lower-triangular algebra.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    members = frozenset(Pair(*p) for p in pairs)
    for p in members:
        if not (1 <= p.col < p.row <= n):
            raise OutOfRangeError(p, n)
    for p in sorted(members):
        if p.row + 1 <= n and Pair(p.row + 1, p.col) not in members:
            raise NotAnIdealError(p, Pair(p.row + 1, p.col))
        if p.col - 1 >= 1 and Pair(p.row, p.col - 1) not in members:
            raise NotAnIdealError(p, Pair(p.row, p.col - 1))
    return PatternIdeal(n, members)


class QuotientAlgebra(namedtuple("QuotientAlgebra", "ideal basis")):
    """The quotient algebra: its basis (a tuple of Pairs) is A minus M, listed
    greatest first.  Instances keep a __dict__ for the cached columns."""

    @classmethod
    def from_ideal(cls, ideal: PatternIdeal) -> "QuotientAlgebra":
        basis = tuple(p for p in all_pairs(ideal.n) if p not in ideal.members)
        return cls(ideal, basis)

    @cached_property
    def columns(self) -> dict[Pair, int]:
        """Each basis position's index in the basis, built once per algebra."""
        return {pair: k for k, pair in enumerate(self.basis)}

    @property
    def n(self) -> int:
        return self.ideal.n

    @property
    def dim(self) -> int:
        return len(self.basis)


class SignedTerm(NamedTuple):
    """A bracket value: coefficient * basis vector, or zero (pair is None)."""

    coefficient: int
    pair: Pair | None


ZERO_TERM = SignedTerm(0, None)


def bracket(a: Pair, b: Pair, ideal: PatternIdeal) -> SignedTerm:
    """Commutator of two basis vectors, reduced modulo the pattern ideal.

    For elementary matrices [E_ab, E_cd] = delta(b,c) E_ad - delta(d,a) E_cb;
    at most one delta fires for lower-triangular positions.  Any result
    landing in M is zero in the quotient.
    """
    if a.col == b.row:
        result = Pair(a.row, b.col)
        sign = 1
    elif b.col == a.row:
        result = Pair(b.row, a.col)
        sign = -1
    else:
        return ZERO_TERM
    if result in ideal.members:
        return ZERO_TERM
    return SignedTerm(sign, result)


def _exact(value, den: int = 1) -> int | Fraction:
    """Input boundary: anything `Fraction` accepts, divided by den, stored as
    an int when integral."""
    if den == 1:
        if type(value) is int:
            return value
        value = Fraction(value)
    else:
        value = Fraction(value, den)
    return value.numerator if value.denominator == 1 else value


class LinearForm(namedtuple("LinearForm", "algebra values")):
    """A point of the dual space: one rational value per basis position.

    Stored sparsely as sorted (Pair, value) items; a missing key means value
    0.  Keys outside the basis are rejected (the form must annihilate the
    ideal).  Instances keep a __dict__ for the cached lookup.
    """

    @classmethod
    def from_dict(cls, algebra: QuotientAlgebra, values: dict[Pair, int | Fraction]) -> "LinearForm":
        cleaned = {}
        for pair, value in values.items():
            pair = Pair(*pair)
            if pair not in algebra.columns:
                raise OutOfRangeError(pair, algebra.n, pair in algebra.ideal.members)
            value = _exact(value)
            if value:
                cleaned[pair] = value
        return cls(algebra, tuple(sorted(cleaned.items())))

    @cached_property
    def lookup(self) -> dict[Pair, int | Fraction]:
        """The values by position, built once per form; read it, never change it."""
        return dict(self.values)


def _is_unit_lower(entries: tuple[tuple[int | Fraction, ...], ...]) -> bool:
    n = len(entries)
    return all(len(row) == n and row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(entries))


class UnipotentElement(namedtuple("UnipotentElement", "entries")):
    """A lower-triangular matrix with unit diagonal and `int` or `Fraction`
    entries, given as a tuple of row tuples; `_replace` checks them too."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int | Fraction, ...], ...]):
        if not all(isinstance(x, (int, Fraction)) for row in entries for x in row):
            raise ValueError("entries must be int or Fraction; from_strict_lower converts other numbers")
        if not _is_unit_lower(entries):
            raise ValueError("entries must be lower triangular with unit diagonal")
        return tuple.__new__(cls, (entries,))

    @classmethod
    def _make(cls, iterable) -> "UnipotentElement":
        return cls(*iterable)

    @classmethod
    def from_strict_lower(cls, n: int, coeffs: dict[Pair, int | Fraction]) -> "UnipotentElement":
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for pair, value in coeffs.items():
            pair = Pair(*pair)
            if not (1 <= pair.col < pair.row <= n):
                raise OutOfRangeError(pair, n)
            rows[pair.row - 1][pair.col - 1] = _exact(value)
        return cls(tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)


def coadjoint_act(g: UnipotentElement, f: LinearForm, ideal: PatternIdeal) -> LinearForm:
    """Move a linear form by the group element, exactly.

    Under the trace pairing the form becomes the upper-triangular matrix b
    with b[col, row] = f(y[row, col]); the action takes g b g^-1 and projects
    back onto the strictly upper part.  The action is linear in the form, so
    b is scaled by the least common denominator of the form's values to an
    integer matrix, and each value read back is divided by it once.  Only the
    strictly upper triangle is formed: row c of g b needs b's rows up to c,
    and row c of the solve X g = g b, taken from the right, needs X[c][k] for
    k > j alone.  Positions of M must come back zero (the annihilator of an
    ideal is stable); otherwise ConsistencyError is raised, never a silent drop.
    """
    n = ideal.n
    if g.n != n or f.algebra.ideal != ideal:
        raise DimensionMismatchError("group element, form and ideal must share the same size")
    den = lcm(*(value.denominator for _, value in f.values))
    b_cols = [[0] * j for j in range(n)]  # b_cols[j][k] = den * b[k][j], for k < j
    for pair, value in f.values:
        b_cols[pair.row - 1][pair.col - 1] = value.numerator * (den // value.denominator)
    g_rows = g.entries
    below = [[(k, g_rows[k][j]) for k in range(j + 1, n) if g_rows[k][j]] for j in range(n)]
    moved = []
    for c in range(n - 1):
        head = g_rows[c][:c + 1]
        x = [0] * n  # row c of den * g b g^-1, formed right of the diagonal only
        for j in range(n - 1, c, -1):
            entry = sum(map(mul, head, b_cols[j]))
            for k, g_kj in below[j]:
                entry -= x[k] * g_kj
            x[j] = entry
        moved.append(x)
    for pair in ideal.members:
        if moved[pair.col - 1][pair.row - 1] != 0:
            raise ConsistencyError(f"coadjoint action left the annihilator of the ideal at {tuple(pair)}")
    values = ((pair, moved[pair.col - 1][pair.row - 1]) for pair in f.algebra.basis)
    return LinearForm(f.algebra, tuple(sorted((pair, _exact(x, den)) for pair, x in values if x)))


# --- deterministic pseudo-randomness -------------------------------------
#
# A counter-based mixer (splitmix64 core) keyed by (seed, indices...) so the
# same seed reproduces the same stream on any platform, with no hidden state.

_MASK = (1 << 64) - 1
_STEP = 0x632BE59BD9B4E019


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def counter_rand(seed: int, *indices: int) -> int:
    """Deterministic 64-bit value keyed by a seed and a counter tuple."""
    state = _splitmix64(seed & _MASK)
    for index in indices:
        state = _splitmix64(state ^ ((index + _STEP) & _MASK))
    return state


def _counter_run(seed: int, *prefix: int, start: int = 0, count: int) -> list[int]:
    """counter_rand(seed, *prefix, k) for k in range(start, start + count):
    the key is hashed once, then each value costs one splitmix."""
    state = counter_rand(seed, *prefix)
    return [_splitmix64(state ^ ((k + _STEP) & _MASK)) for k in range(start, start + count)]


def _uniform(seed: int, bound: int, start: int, count: int) -> list[int]:
    """counter_rand(seed, k) mapped onto [-bound, bound], for k in range(start, start + count)."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return [x % (2 * bound + 1) - bound for x in _counter_run(seed, start=start, count=count)]


def random_form(algebra: QuotientAlgebra, bound: int, seed: int) -> LinearForm:
    """A reproducible form with integer values in [-bound, bound]."""
    values = zip(algebra.basis, _uniform(seed, bound, 0, algebra.dim))
    return LinearForm(algebra, tuple(sorted((pair, x) for pair, x in values if x)))


def random_unipotent(n: int, bound: int, seed: int) -> UnipotentElement:
    """A reproducible unit lower-triangular matrix with entries in [-bound, bound]."""
    rows = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    for (i, j), x in zip(all_pairs(n), _uniform(seed, bound, 1_000_003, n * (n - 1) // 2)):
        rows[i - 1][j - 1] = x
    return UnipotentElement(tuple(map(tuple, rows)))


# --- enumeration of pattern ideals ----------------------------------------
#
# A lower-left closed set is determined by one threshold per column: the
# first row belonging to M in that column (n+1 when the column is empty).
# Closure is equivalent to the thresholds being weakly increasing, so the
# whole family is walked by enumerating those staircase sequences.


def _ideal_from_thresholds(n: int, thresholds: tuple[int, ...]) -> PatternIdeal:
    members = frozenset(
        Pair(i, j + 1)
        for j, r in enumerate(thresholds)
        for i in range(r, n + 1)
    )
    return PatternIdeal(n, members)


def _threshold_vectors(n: int) -> Iterator[tuple[int, ...]]:
    if not 1 <= n <= 8:
        raise ValueError(f"enumeration supported for 1 <= n <= 8, got {n}")

    # depth first from an explicit stack; a prefix of length col - 1 takes
    # each threshold r for column col from n + 1 down to its floor
    stack = [()]
    while stack:
        prefix = stack.pop()
        col = len(prefix) + 1
        if col == n:
            yield prefix
            continue
        lo = max(col + 1, prefix[-1] if prefix else 2)
        for r in range(lo, n + 2):
            stack.append(prefix + (r,))


def enumerate_pattern_ideals(n: int) -> Iterator[PatternIdeal]:
    """Every lower-left closed subset of A, each exactly once, empty set first."""
    for thresholds in _threshold_vectors(n):
        yield _ideal_from_thresholds(n, thresholds)


def sample_pattern_ideals(n: int, count: int, seed: int) -> list[PatternIdeal]:
    """A deterministic pseudo-random subset of the full enumeration: the
    ideals whose positions k in it have the least counter_rand(seed, n, k).
    Only the returned ideals are built."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    vectors = list(_threshold_vectors(n))
    if count > len(vectors):
        raise ValueError(f"only {len(vectors)} pattern ideals exist for n={n}")
    order = sorted(zip(_counter_run(seed, n, count=len(vectors)), range(len(vectors))))
    return [_ideal_from_thresholds(n, vectors[k]) for _, k in order[:count]]
