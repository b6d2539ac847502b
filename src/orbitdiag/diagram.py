"""The filling algorithm for the n x n symbol table attached to an ideal.

Step 0 marks the ideal positions with bullets.  Each later step puts a
cross on the greatest unfilled position (k,t) in the column order, then
walks the middle indices a with t < a < k and fills the pair of places
(k,a) with a minus and (a,t) with a plus whenever BOTH are still empty.
The table is finished when nothing is unfilled; the cross count equals
the index of the quotient algebra and the plus/minus count equals the
maximal coadjoint-orbit dimension.

The module also exposes the unfilled chains B_i, the seven-way
classification of B_i relative to step i (which drives the invariant
construction), the d_i^- subsets, and bracket-closure checks.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import NamedTuple

from .core import ConsistencyError, Pair, PatternIdeal, all_pairs, bracket, order_gt, succ_key

__all__ = [
    "SymbolKind",
    "Symbol",
    "StepRecord",
    "Diagram",
    "StepOutOfRangeError",
    "build_diagram",
    "index_of",
    "max_orbit_dim",
    "b_set",
    "classify_step",
    "d_minus",
    "dominating_ideal",
    "check_closure",
]


class SymbolKind(Enum):
    BULLET = "bullet"
    CROSS = "cross"
    PLUS = "plus"
    MINUS = "minus"


class Symbol(NamedTuple):
    kind: SymbolKind
    step: int


class StepOutOfRangeError(IndexError):
    def __init__(self, i: int, s: int):
        self.i = i
        self.s = s
        super().__init__(f"step {i} out of range (diagram has {s} steps)")


class StepRecord(NamedTuple):
    """Step i's cross placement, at d.steps[i - 1]: its position, fills and p.

    p is the first row of the ideal in the cross's column t (n+1 when the
    column has no ideal cells); rows p..n of column t are exactly its
    bullet cells, and p > k always holds.
    """

    xi: Pair
    minus: tuple[Pair, ...]
    plus: tuple[Pair, ...]
    p: int


class Diagram(NamedTuple):
    ideal: PatternIdeal
    cells: dict[Pair, Symbol]
    steps: tuple[StepRecord, ...]

    @property
    def n(self) -> int:
        return self.ideal.n

    @property
    def s(self) -> int:
        return len(self.steps)

    @property
    def xi_list(self) -> tuple[Pair, ...]:
        return tuple(rec.xi for rec in self.steps)

    @property
    def pluses(self) -> tuple[Pair, ...]:
        return tuple(sorted((p for rec in self.steps for p in rec.plus), key=succ_key))

    @property
    def minuses(self) -> tuple[Pair, ...]:
        return tuple(sorted((p for rec in self.steps for p in rec.minus), key=succ_key))


def build_diagram(ideal: PatternIdeal) -> Diagram:
    """Run the filling procedure to completion and record every step."""
    n = ideal.n
    order = all_pairs(n)  # greatest first
    cells: dict[Pair, Symbol] = {p: Symbol(SymbolKind.BULLET, 0) for p in ideal.members}
    steps: list[StepRecord] = []
    while len(cells) < len(order):
        i = len(steps) + 1
        xi = next(p for p in order if p not in cells)
        k, t = xi
        cells[xi] = Symbol(SymbolKind.CROSS, i)
        minus: list[Pair] = []
        plus: list[Pair] = []
        for a in range(t + 1, k):
            ka, at = Pair(k, a), Pair(a, t)
            if ka not in cells and at not in cells:
                cells[ka] = Symbol(SymbolKind.MINUS, i)
                cells[at] = Symbol(SymbolKind.PLUS, i)
                minus.append(ka)
                plus.append(at)
        p = min((m.row for m in ideal.members if m.col == t), default=n + 1)
        if p <= k:
            raise ConsistencyError(f"ideal cell ({p},{t}) lies above the cross {tuple(xi)}: not an ideal")
        steps.append(StepRecord(xi, tuple(sorted(minus, key=succ_key)), tuple(sorted(plus, key=succ_key)), p))
    return Diagram(ideal, cells, tuple(steps))


def index_of(d: Diagram) -> int:
    """Number of crosses: the index of the quotient algebra."""
    return len(d.steps)


def max_orbit_dim(d: Diagram) -> int:
    """Number of plus and minus cells: the top coadjoint-orbit dimension."""
    return sum(len(rec.minus) + len(rec.plus) for rec in d.steps)


def b_set(d: Diagram, i: int) -> tuple[Pair, ...]:
    """Positions unfilled after step i, greatest first (B_0 = A minus M).

    Read off the cells: those filled at a later step (bullets have step 0)."""
    if not 0 <= i <= d.s:
        raise StepOutOfRangeError(i, d.s)
    return tuple(p for p in all_pairs(d.n) if d.cells[p].step > i)


def classify_step(d: Diagram, i: int) -> dict[Pair, str]:
    """Sort the survivors B_i into the seven classes relative to step i.

    With the cross at (k,t) and p the first ideal row in column t, a
    survivor (a,b) falls into:
      1.1  - a < k, t < b, and both partners (a,t), (k,b) were unfilled
             before the step (these get the determinant-style image);
      1.2a - b = t;  1.2b - a = k;  1.2c - a < k, t < b, partner missing;
      2    - a > k, t < b < k;
      3    - a > k, b = k (forces a >= p);
      4    - a > k, b > k.
    Only classes 1.1 and 3 change coordinates in the invariant chain.
    """
    if not 1 <= i <= d.s:
        raise StepOutOfRangeError(i, d.s)
    rec = d.steps[i - 1]
    k, t = rec.xi
    # A cell filled at step >= i was still unfilled before step i.  No such
    # cell sits at (a,k) with k < a < p: those always received a minus
    # earlier.  This also gives a >= p for every class-3 survivor.
    for a in range(k + 1, rec.p):
        if d.cells[Pair(a, k)].step >= i:
            raise ConsistencyError(f"step {i}: {(a, k)} is unfilled between the cross and row {rec.p}")
    classes: dict[Pair, str] = {}
    for pair in b_set(d, i):
        a, b = pair
        if b == t:
            if a >= k:
                raise ConsistencyError(f"step {i}: survivor {tuple(pair)} is not above the cross")
            cls = "1.2a"
        elif a == k:
            cls = "1.2b"
        elif a < k:
            if not t < b < k:
                raise ConsistencyError(f"step {i}: survivor {tuple(pair)} is left of the cross column")
            if d.cells[Pair(a, t)].step >= i and d.cells[Pair(k, b)].step >= i:
                cls = "1.1"
            else:
                cls = "1.2c"
        elif b < k:
            cls = "2"
        elif b == k:
            cls = "3"
        else:
            cls = "4"
        classes[pair] = cls
    return classes


def d_minus(d: Diagram, i: int) -> tuple[Pair, ...]:
    """Minus cells of steps 1..i that are smaller than the step-i cross."""
    if not 1 <= i <= d.s:
        raise StepOutOfRangeError(i, d.s)
    xi = d.steps[i - 1].xi
    collected = [
        p for rec in d.steps[:i] for p in rec.minus if order_gt(xi, p)
    ]
    return tuple(sorted(collected, key=succ_key))


def dominating_ideal(d: Diagram, i: int) -> PatternIdeal:
    """All positions strictly greater than the step-i cross, as a pattern ideal.

    The minus family d_minus(d, i) need not be bracket-closed on its own:
    a product of two members can land in the cross's own column above it
    (first possible at n = 7).  It is always closed modulo this ideal —
    every escaping product dominates the cross — and that weaker closure
    is all the step arguments rely on.
    """
    if not 1 <= i <= d.s:
        raise StepOutOfRangeError(i, d.s)
    xi = d.steps[i - 1].xi
    return PatternIdeal(
        d.n, frozenset(p for p in all_pairs(d.n) if order_gt(p, xi))
    )


def check_closure(pairs, ideal: PatternIdeal) -> bool:
    """True iff the span of the given positions (plus the ideal) is bracket-closed.

    For every two positions in the set, the bracket modulo the ideal must
    be zero or land back in the set.  Used with B_i + M (subalgebra chain)
    and with the d_i^- sets.
    """
    members = set(pairs)
    for a, b in combinations(members, 2):
        term = bracket(a, b, ideal)
        if term.pair is not None and term.pair not in members:
            return False
    return True
