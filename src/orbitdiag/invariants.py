"""Step-by-step construction of the coadjoint invariants z_1..z_s.

After each cross placement the coordinate ring splits off one Weyl pair
per minus/plus couple plus a central Laurent variable; what survives is a
copy of the smaller quotient's ring embedded along new coordinates.  The
embedding only changes coordinates of classes 1.1 and 3:

    class 1.1:  Y[a,b] - Y[a,t] * Y[k,b] / Z
    class 3:    ( Y[a,k] * Z + sum_j Y[a,j] * Y[j,t] ) / Z
                    over middles t < j < k with (j,t) still unfilled,
                    dropping terms whose (a,j) lies in the ideal

with Z the previous image of the cross position (k,t).  The invariant
z_i is the bare numerator of Z — kept exactly as produced, since the
no-cancellation arithmetic may leave factors of earlier z's in it.

Each z is checked two ways: it Poisson-commutes with every coordinate,
and it has the staircase shape z = y_xi * Q + P with Q an exact product
of earlier z's and P supported on strictly greater variables.  The shape
needs no search: each earlier z_j has degree 1 in its own pivot, its
least variable, which no older z contains, so the exponents of Q are
read off its degrees in those pivots and one product certifies them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .core import ConsistencyError, Pair, PatternIdeal, bracket, order_gt, succ_key
from .diagram import Diagram, b_set, classify_step
from .polyring import (
    LocalizedElement,
    Polynomial,
    _brackets_with,
    _largest_exponents,
    _product,
    loc_add,
    loc_divide,
    loc_equal,
    loc_mul,
    loc_poisson_bracket,
    loc_scale,
    loc_sub,
)

__all__ = [
    "ThetaState",
    "RelationReport",
    "InconsistentStateError",
    "NotTriangularError",
    "CentralityError",
    "initial_state",
    "theta_step",
    "build_invariants",
    "triangular_decompose",
    "verify_centrality",
    "verify_relations",
]


class InconsistentStateError(ConsistencyError):
    pass


class CentralityError(ConsistencyError):
    pass


class NotTriangularError(ConsistencyError):
    """The staircase-shape check failed; carries which check and a witness."""

    def __init__(self, reason: str, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason}: {witness}")


class ThetaState(NamedTuple):
    """Composite images of the surviving coordinates after i = len(z_list) steps.

    images[(a,b)] is the original-variable expression of the step-level
    coordinate y[a,b]; keys are exactly the unfilled set B_i.  z_list holds
    the numerators extracted so far (z_1..z_i), which is also the table the
    formal denominators refer to.  Started from the variables' values in
    another ring (residues at a form), theta_step gives the z's there.
    """

    images: dict[Pair, LocalizedElement]
    z_list: tuple[Polynomial, ...]


class RelationReport(NamedTuple):
    """The outcome of one step's relation check; `state` is the step built."""

    state: ThetaState
    checked: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def initial_state(d: Diagram) -> ThetaState:
    images = {pair: LocalizedElement(Polynomial.variable(pair)) for pair in b_set(d, 0)}
    return ThetaState(images, ())


def theta_step(prev: ThetaState, d: Diagram, i: int) -> ThetaState:
    if len(prev.z_list) != i - 1:
        raise InconsistentStateError(f"state is at step {len(prev.z_list)}, expected {i - 1}")
    if set(prev.images) != set(b_set(d, i - 1)):
        raise InconsistentStateError("image keys do not match the unfilled set")
    classes = classify_step(d, i)  # raises StepOutOfRangeError for i > s before d.steps is read
    rec = d.steps[i - 1]
    k, t = rec.xi
    pivot = prev.images[rec.xi]
    z_table = (*prev.z_list, pivot.num)
    images: dict[Pair, LocalizedElement] = {}
    for pair, cls in classes.items():
        a, b = pair
        if cls == "1.1":
            correction = loc_divide(
                loc_mul(prev.images[Pair(a, t)], prev.images[Pair(k, b)]), pivot, z_table
            )
            images[pair] = loc_sub(prev.images[pair], correction, z_table)
        elif cls == "3":
            total = loc_mul(prev.images[pair], pivot)
            for j in range(t + 1, k):
                if Pair(j, t) not in prev.images:
                    continue
                aj = Pair(a, j)
                if aj in d.ideal.members:
                    continue
                if aj not in prev.images:
                    raise InconsistentStateError(
                        f"coordinate {tuple(aj)} should still be unfilled at step {i}"
                    )
                total = loc_add(
                    total, loc_mul(prev.images[aj], prev.images[Pair(j, t)]), z_table
                )
            images[pair] = loc_divide(total, pivot, z_table)
        else:
            images[pair] = prev.images[pair]
    return ThetaState(images, z_table)


def build_invariants(d: Diagram, check: bool = True) -> list[Polynomial]:
    """The invariants z_1..z_s as polynomials in the original variables.

    With check=True (the default) every z is put through the staircase
    decomposition and the centrality test before being returned.
    """
    state = initial_state(d)
    for i in range(1, d.s + 1):
        state = theta_step(state, d, i)
    zs = list(state.z_list)
    if check:
        for idx, z in enumerate(zs, start=1):
            triangular_decompose(z, d.steps[idx - 1].xi, zs[: idx - 1])
            if not verify_centrality(z, d.ideal):
                raise CentralityError(
                    f"z_{idx} does not commute with every coordinate"
                )
    return zs


def triangular_decompose(
    z: Polynomial, xi: Pair, earlier: list
) -> tuple[dict[int, int], Polynomial]:
    """Split z as y_xi * Q + P and certify the staircase shape.

    One pass over z's terms splits off Q, the terms with y_xi (y_xi
    removed), and P, the rest.  Checks, in order: z has degree exactly 1
    in y_xi; Q is a product of powers of the earlier z's; and P only
    involves variables strictly greater than xi.  Newest first, e_j is Q's
    degree in the least variable of z_j (its pivot, absent from older z's)
    less the newer factors' degrees there, which add under products; one
    exact product of the factors, smallest first, then certifies Q for any
    `earlier`.
    Returns the exponent map of Q and the remainder P.
    """
    xi = Pair(*xi)
    with_xi, without = {}, {}
    degree = 0
    for m, c in z.terms.items():
        i = bisect_left(m, (xi,))
        if i < len(m) and m[i][0] == xi:
            degree = max(degree, m[i][1])
            with_xi[m[:i] + m[i + 1 :]] = c
        else:
            without[m] = c
    if degree != 1:
        raise NotTriangularError("degree in the pivot variable is not 1", (tuple(xi), degree))
    q = Polynomial(with_xi)
    tops = [_largest_exponents(w.terms) for w in earlier]
    top_q = _largest_exponents(q.terms)
    exponents: dict[int, int] = {}
    for j in range(len(earlier), 0, -1):
        least = max(tops[j - 1], key=succ_key, default=None)
        if least is None:
            continue
        e = top_q.get(least, 0) - sum(e_k * tops[k - 1].get(least, 0) for k, e_k in exponents.items())
        if e > 0:
            exponents[j] = e
    factors = [earlier[j - 1] for j, e in exponents.items() for _ in range(e)]
    if _product(sorted(factors, key=lambda w: len(w.terms))) != q:
        raise NotTriangularError("pivot coefficient is not a product of earlier invariants", q)
    remainder = Polynomial(without)
    for v in sorted(remainder.variables()):
        if not order_gt(v, xi):
            raise NotTriangularError("remainder touches a variable not above the pivot", tuple(v))
    return exponents, remainder


def verify_centrality(z: Polynomial, ideal: PatternIdeal) -> bool:
    """Does z Poisson-commute with every coordinate of the quotient?

    {z, .} is a derivation, so by Jacobi it kills [x, y] once it kills x and y.
    Each y[i,j] outside M is [y[i,j+1], y[j+1,j]], both factors outside M by
    lower-left closure, so the generators y[i+1,i] outside M suffice; their
    brackets with z are summed on packed keys in one pass over z's terms.
    """
    generators = [Pair(i + 1, i) for i in range(1, ideal.n) if Pair(i + 1, i) not in ideal.members]
    return not _brackets_with(z, generators, ideal)


def verify_relations(prev: ThetaState, d: Diagram, i: int) -> RelationReport:
    """Check every identity the step is supposed to satisfy.

    (a) the new images reproduce the bracket table of the smaller algebra,
    (b) the split-off pairs are canonical ({p_a,q_b} = delta, {p,p} = {q,q} = 0),
    (c) the three factors commute with one another: Z and the Weyl pairs,
        Z and the new images, Weyl pairs and the new images.
    Every z of the table is first shown central, which is what lets the
    bracket of u/v and w/x be {u, w}/(v*x); a z that is not fails the step
    before any identity is counted.  Everything is then compared by cross
    multiplication; the first failure is reported verbatim.
    """
    state = theta_step(prev, d, i)
    ideal = d.ideal
    z_table = state.z_list
    for j, z in enumerate(z_table, start=1):
        if not verify_centrality(z, ideal):
            return RelationReport(state, 0, f"z_{j} does not commute with every coordinate")
    rec = d.steps[i - 1]
    pivot = prev.images[rec.xi]
    # The Weyl pairs split off here: p_j is the previous image of the minus
    # cell (k,j), q_j that of the plus cell (j,t) divided by Z.
    p = {pair.col: prev.images[pair] for pair in rec.minus}
    q = {pair.row: loc_divide(prev.images[pair], pivot, z_table) for pair in rec.plus}
    if set(p) != set(q):
        raise InconsistentStateError("minus and plus cells do not pair up by middle index")
    one, zero = LocalizedElement(1), LocalizedElement(0)
    survivors = b_set(d, i)
    middles = sorted(p)

    def identities():
        """(x, y, expected {x, y}, message on failure), in report order."""
        for idx, alpha in enumerate(survivors):
            for beta in survivors[idx + 1 :]:
                term = bracket(alpha, beta, ideal)
                if term.pair is None:
                    rhs = zero
                elif term.pair in state.images:
                    rhs = loc_scale(state.images[term.pair], term.coefficient)
                else:
                    raise InconsistentStateError(
                        f"bracket of {tuple(alpha)},{tuple(beta)} left the surviving set"
                    )
                yield (
                    state.images[alpha],
                    state.images[beta],
                    rhs,
                    f"images of {tuple(alpha)}, {tuple(beta)} have the wrong bracket",
                )
        for a in middles:
            for b in middles:
                expected, shown = (one, "1") if a == b else (zero, "0")
                yield p[a], q[b], expected, f"{{p_{a}, q_{b}}} is not {shown}"
            for b in middles:
                if b > a:
                    yield p[a], p[b], zero, f"{{p_{a}, p_{b}}} is not 0"
                    yield q[a], q[b], zero, f"{{q_{a}, q_{b}}} is not 0"
        for j in middles:
            yield pivot, p[j], zero, f"Z does not commute with p_{j}"
            yield pivot, q[j], zero, f"Z does not commute with q_{j}"
        for eta in survivors:
            image = state.images[eta]
            yield image, pivot, zero, f"image of {tuple(eta)} does not commute with Z"
            for j in middles:
                yield image, p[j], zero, f"image of {tuple(eta)} does not commute with p_{j}"
                yield image, q[j], zero, f"image of {tuple(eta)} does not commute with q_{j}"

    checked = 0
    for x, y, expected, message in identities():
        checked += 1
        if not loc_equal(loc_poisson_bracket(x, y, ideal), expected, z_table):
            return RelationReport(state, checked, message)
    return RelationReport(state, checked)
