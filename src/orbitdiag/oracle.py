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
exact for callers that need the rank over Q of one given form: it
eliminates on sparse primitive integer rows, touching only the rows that
meet the pivot's column, and every entry it makes is bounded by a minor
of the matrix with its denominators cleared.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
    """The pairing table, from the brackets that can be nonzero.

    [y_a, y_b] vanishes unless the two positions share an index: for
    a = (i, j) the only partners are (j, l) with l < j and (k, i) with
    k > i, so only those are bracketed and every other entry is 0.
    """
    if f.algebra.ideal != ideal:
        raise DimensionMismatchError("form and ideal must belong to the same quotient")
    basis = f.algebra.basis
    values = f.as_dict()
    columns = {pair: k for k, pair in enumerate(basis)}
    rows = []
    for a in basis:
        row = [0] * len(basis)
        partners = [(a.col, l) for l in range(1, a.col)]
        partners += [(k, a.row) for k in range(a.row + 1, ideal.n + 1)]
        for b in partners:
            col = columns.get(b)
            if col is not None:
                term = bracket(a, basis[col], ideal)
                value = values.get(term.pair, 0)
                # a coefficient is +-1, and negating a Fraction is cheaper than a product
                row[col] = -value if term.coefficient < 0 else value
        rows.append(tuple(row))
    return SkewMatrix(len(basis), tuple(rows))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content, the gcd of its entries."""
    content = gcd(*row.values())
    if content == 1:
        return row
    return {c: x // content for c, x in row.items()}


def _integer_rows(matrix) -> list[dict[int, int]]:
    """The nonzero rows as primitive integer rows {column: entry}.

    Denominators are cleared per row; rank is scale-invariant.
    """
    rows = matrix.entries if isinstance(matrix, SkewMatrix) else matrix
    cleared = []
    for row in rows:
        entries = {c: x for c, x in enumerate(row) if x}
        if entries:
            scale = lcm(*(x.denominator for x in entries.values()))
            cleared.append(
                _primitive({c: x.numerator * (scale // x.denominator) for c, x in entries.items()})
            )
    return cleared


def exact_rank(matrix) -> int:
    """Rank over the rationals, by fraction-free elimination on sparse rows.

    Accepts a SkewMatrix or any rectangular iterable of rational rows.
    Each row is kept as {column: int}, its denominators cleared and its
    content divided out.  The pivot row is the remaining row with the
    fewest nonzeros, pivoting on any entry p of it in column c; each row
    with an entry `lead` in column c becomes (p/g)·row - (lead/g)·pivot,
    g = gcd(p, lead), divided by its content.  Rows without an entry in c
    are not touched, which is the whole gain: a skew form of ut(n)/m has
    at most n - 2 nonzeros per row.

    Entry size.  Let M be the integer matrix the rows start as, P the rows
    taken as pivots so far and C their pivot columns.  A reduced row r is
    a combination of M's rows P ∪ {r} that vanishes on C, and as M[P, C]
    is invertible those combinations form a line.  The vector of minors
    v_c = det M[P ∪ {r}, C ∪ {c}] lies on it: expanding along the last
    column writes v as a combination of those rows, and v_c = 0 for c in
    C (a repeated column).  The reduced row is primitive, so it is
    ±v / gcd(v), and each entry is at most a minor of M in absolute
    value: Hadamard's bound, as for Bareiss elimination.  Without the
    content division a row is only some multiple of v, with no bound.

    On dense rows this costs more than a dense Bareiss sweep (about 1.5x
    on random 80x80 rational matrices); no caller passes dense rows.
    """
    rows = _integer_rows(matrix)
    rank = 0
    while rows:
        sizes = [len(row) for row in rows]
        pivot_row = rows.pop(sizes.index(min(sizes)))
        rank += 1
        col, p = next(iter(pivot_row.items()))
        updated = []
        for row in rows:
            lead = row.get(col)
            if lead is not None:
                g = gcd(p, lead)
                scale, factor = p // g, lead // g
                row = {c: scale * x for c, x in row.items()}
                for c, y in pivot_row.items():
                    x = row.get(c, 0) - factor * y
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                if not row:
                    continue
                row = _primitive(row)
            updated.append(row)
        rows = updated
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
