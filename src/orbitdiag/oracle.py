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
Jacobian rank mod p still certifies independence.  No rank exceeds the term
rank of the nonzero pattern (a larger minor has no nonzero term), so a rank
mod p that meets it is the rank over Q: the index oracle stops there, and
`exact_rank` returns it.  Every rank is one sparse elimination that updates
its own rows in place, copying none, and touches only the rows meeting the
pivot's column; over Q the rows stay primitive, so each entry is bounded by
a minor of the matrix, denominators cleared.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    DimensionMismatchError,
    LinearForm,
    MissingCoordinateError,
    PatternIdeal,
    QuotientAlgebra,
    coadjoint_act,
    counter_rand,
    random_form,
    random_unipotent,
)

if TYPE_CHECKING:  # the rank oracles run without loading polyring
    from .polyring import Polynomial

__all__ = [
    "SkewMatrix",
    "skew_form_matrix",
    "exact_rank",
    "index_oracle",
    "jacobian_rank",
    "generic_jacobian_rank",
    "invariance_oracle",
]

_P = (1 << 61) - 1
_RETRIES = 5


class SkewMatrix(NamedTuple):
    """The pairing table f([y_a, y_b]) over the surviving basis: one sparse
    row {column: nonzero value} per basis position, in ascending column order."""

    rows: tuple[dict[int, int | Fraction], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def skew_form_matrix(f: LinearForm, ideal: PatternIdeal) -> SkewMatrix:
    """The pairing table, from the brackets that can be nonzero.

    [y_a, y_b] vanishes unless the two positions share an index: for
    a = (i, j) the only partners are b = (j, l) with l < j, where
    [y_a, y_b] = y[i,l], and b = (k, i) with k > i, where it is -y[k,j];
    a bracket landing in the ideal has no value in f.  Listed in that
    order, with k falling, the partners come in ascending basis position.
    """
    if f.algebra.ideal != ideal:
        raise DimensionMismatchError("form and ideal must belong to the same quotient")
    values = f.lookup
    columns = f.algebra.columns
    rows = []
    for i, j in f.algebra.basis:
        row = {}
        for l in range(1, j):
            col, value = columns.get((j, l)), values.get((i, l))
            if col is not None and value:
                row[col] = value
        for k in range(ideal.n, i, -1):
            col, value = columns.get((k, i)), values.get((k, j))
            if col is not None and value:
                row[col] = -value
        rows.append(row)
    return SkewMatrix(tuple(rows))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row, divided in place by its content, the gcd of its entries."""
    content = gcd(*row.values())
    if content != 1:
        for c, x in row.items():
            row[c] = x // content
    return row


def _eliminate(rows: list[dict[int, int]], modulus: int = 0) -> int:
    """Rank of sparse integer rows {column: entry}: over Q, or over GF(modulus).

    The pivot row is the remaining row with the fewest nonzeros, pivoting
    on its first entry p in column c.  Over Q each row with an entry `lead`
    in column c becomes (p/g)·row - (lead/g)·pivot, g = gcd(p, lead), and
    is then divided by its content; mod p it becomes row - (lead/p)·pivot.
    Rows without an entry in c are not touched.  The rows are the caller's
    to give up: each is updated in place, and none is copied.
    """
    rows = [row for row in rows if row]
    sizes = [len(row) for row in rows]
    rank = 0
    while rows:
        pivot_row = rows.pop(at := sizes.index(min(sizes)))
        del sizes[at]
        rank += 1
        col, p = next(iter(pivot_row.items()))
        inverse = pow(p, -1, modulus) if modulus else 0
        for i, row in enumerate(rows):
            lead = row.get(col)
            if lead is not None:
                if modulus:
                    factor = lead * inverse % modulus
                else:
                    g = gcd(p, lead)
                    scale, factor = p // g, lead // g
                    if scale != 1:
                        for c, x in row.items():
                            row[c] = x * scale
                for c, y in pivot_row.items():
                    x = row.get(c, 0) - factor * y
                    if modulus:
                        x %= modulus
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                if not modulus:
                    _primitive(row)
                sizes[i] = len(row)
        if 0 in sizes:
            rows, sizes = [row for row in rows if row], [size for size in sizes if size]
    return rank


def _term_rank(rows) -> int:
    """The size of a largest matching of sparse rows {column: nonzero} to their
    columns, no less than the rank of any matrix of that pattern: greedy, then
    an augmenting-path search on a stack (Kuhn 1955) from each unmatched row."""
    owner, matched = {}, {}  # column -> its row, and row -> its column
    for r, row in enumerate(rows):
        for c in row:
            if c not in owner:
                owner[c], matched[r] = r, c
                break
    for root in range(len(rows)):
        if root in matched:
            continue
        parent, stack, end = {}, [root], None
        while stack and end is None:
            r = stack.pop()
            for c in rows[r]:
                if c not in parent:
                    parent[c] = r
                    if c not in owner:
                        end = c
                        break
                    stack.append(owner[c])
        while end is not None:
            r = parent[end]
            owner[end], matched[r], end = r, end, matched.get(r)
    return len(matched)


def exact_rank(matrix: SkewMatrix) -> int:
    """Rank over the rationals, certified mod p or by fraction-free elimination.

    Each sparse row's explicit zeros are dropped, its denominators cleared
    and its content divided out.  A rank mod p of those integer rows that
    meets their term rank is returned: a nonzero minor mod p is one over Q,
    and no larger minor has a nonzero term.  Otherwise `_eliminate` runs over
    Q; it touches only the rows that meet the pivot's column, and a skew
    form of ut(n)/m has at most n - 2 nonzeros per row.

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
    """
    cleared = []
    for row in matrix.rows:
        scale = lcm(*(x.denominator for x in row.values()))
        cleared.append(_primitive({c: x.numerator * (scale // x.denominator) for c, x in row.items() if x}))
    rank = _eliminate([{c: r for c, x in row.items() if (r := x % _P)} for row in cleared], _P)
    return rank if rank == _term_rank(cleared) else _eliminate(cleared)


def _reduce(x) -> int:
    """x mod p, for an int or a rational a/b with b prime to p (a * b^-1)."""
    if isinstance(x, int):
        return x % _P
    den = x.denominator % _P
    if not den:
        raise ValueError(f"{x} has no value mod 2^61 - 1")
    return x.numerator * pow(den, -1, _P) % _P


def _modular_rank(matrix: SkewMatrix) -> int:
    """Rank mod p of the matrix, by `_eliminate` over GF(p).

    A lower bound for the rank over Q (see the module docstring), equal to
    it unless p divides every maximal nonzero minor.
    """
    return _eliminate([{c: r for c, x in row.items() if (r := _reduce(x))} for row in matrix.rows], _P)


def index_oracle(
    ideal: PatternIdeal, trials: int, bound: int, seed: int
) -> tuple[int, int]:
    """(index, generic rank) of the quotient, via random sampling.

    Evaluates the skew form at `trials` random integer points and takes the
    best rank seen; rank deficiency at every sampled point would require each
    point to land in a proper closed subvariety, so the max is the generic
    value for any reasonable number of trials.  Each rank is taken mod
    p = 2^61 - 1, which never exceeds the rank over Q, so the max stays a
    lower bound for the generic rank and the index it gives an upper bound.
    The all-ones form's term rank bounds every B_f, so a best rank that meets
    it is the generic rank and the trials stop.  Deterministic in the seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    algebra = QuotientAlgebra.from_ideal(ideal)
    ones = LinearForm.from_dict(algebra, dict.fromkeys(algebra.basis, 1))
    ceiling = _term_rank(skew_form_matrix(ones, ideal).rows)
    best = 0
    for trial in range(trials):
        f = random_form(algebra, bound, counter_rand(seed, 0xF0, trial))
        best = max(best, _modular_rank(skew_form_matrix(f, ideal)))
        if best == ceiling:
            break
    return algebra.dim - best, best


def _gradient(z: Polynomial, values: dict, columns: dict) -> dict[int, int]:
    """The sparse gradient {column: nonzero residue} of z at a point, mod p, in one walk over z's terms.

    `values` maps each coordinate to its value mod p and `columns` to its
    position in the gradient.  For a term c * v_1^e_1 ... v_k^e_k, the
    partial in v_i is the product of the other factors' powers (a prefix
    product times a suffix product, so a zero coordinate needs no
    division) times c * e_i * v_i^(e_i - 1).  Each distinct entry v^e
    gets its (column, v^e, e * v^(e - 1)) once.
    """
    gradient = [0] * len(columns)
    entries: dict = {}
    for monomial, c in z.terms.items():
        rows = []
        for entry in monomial:
            row = entries.get(entry)
            if row is None:
                pair, e = entry
                col = columns.get(pair)
                if col is None:
                    raise MissingCoordinateError(pair)
                v = values.get(pair, 0)
                lower = pow(v, e - 1, _P)
                row = entries[entry] = (col, lower * v % _P, e * lower)
            rows.append(row)
        prefix = [_reduce(c)]
        for _, power, _ in rows[:-1]:
            prefix.append(prefix[-1] * power % _P)
        suffix = 1
        for k in range(len(rows) - 1, -1, -1):
            col, power, slope = rows[k]
            gradient[col] += prefix[k] * suffix * slope
            suffix = suffix * power % _P
    return {c: r for c, g in enumerate(gradient) if (r := g % _P)}


def jacobian_rank(zs: list[Polynomial], f: LinearForm) -> int:
    """Rank mod p = 2^61 - 1 of the matrix of gradients of the zs at f.

    At most the rank over Q (see the module docstring), so a full rank
    still certifies that the zs are independent.  Each gradient is taken
    in one walk over its z's terms; no partial derivative is built.
    """
    values = {pair: _reduce(v) for pair, v in f.values}
    return _eliminate([_gradient(z, values, f.algebra.columns) for z in zs], _P)


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
        import logging  # loaded only when a retry happens, off the CLI's start-up path

        logging.getLogger("orbitdiag.oracle").warning(
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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    from .polyring import evaluate

    algebra = QuotientAlgebra.from_ideal(ideal)
    for trial in range(trials):
        f = random_form(algebra, 100, counter_rand(seed, 0xAD, trial, 0))
        g = random_unipotent(ideal.n, 5, counter_rand(seed, 0xAD, trial, 1))
        moved = coadjoint_act(g, f, ideal)
        for z in zs:
            if evaluate(z, f) != evaluate(z, moved):
                return False
    return True
