"""Sparse polynomials over exact rationals in the variables y[i,j].

Variables are lower-triangular positions outside the ideal; a monomial is
stored as a tuple of ((row,col), exponent) entries sorted by (row, col),
and a polynomial as a dict mapping monomials to nonzero ints, or Fractions
where not integral; only the parser builds Fractions, so integer input
stays integer.  On top of the plain ring sit:

  * the Poisson bracket induced by the structure constants (images inside
    the ideal drop to zero),
  * localized elements numerator / prod z_j^{e_j} whose denominators are
    formal products of the invariants built so far — arithmetic takes
    common denominators by multiset union and never cancels,
  * a deterministic text form ("2*y[3,1]*y[4,2]^2 - y[2,1]") and a parser
    for it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
import re

from .core import (
    ConsistencyError, LinearForm, MissingCoordinateError, Pair, PatternIdeal, _exact, bracket,
)

__all__ = [
    "Monomial",
    "Polynomial",
    "LocalizedElement",
    "MissingCoordinateError",
    "PolynomialSyntaxError",
    "poisson_bracket",
    "partial_derivative",
    "evaluate",
    "canonical_string",
    "parse_polynomial",
    "expand_denominator",
    "loc_add",
    "loc_sub",
    "loc_mul",
    "loc_divide",
    "loc_scale",
    "loc_equal",
    "loc_poisson_bracket",
]

# A monomial: (((row, col), exponent), ...) with positions ascending by
# (row, col) and all exponents positive.  The empty tuple is the unit.
Monomial = tuple

ONE: Monomial = ()


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def monomial_mul(u: Monomial, v: Monomial) -> Monomial:
    """Each entry of the shorter monomial inserted into the sorted longer
    one, exponents added on a shared position; the longer one's other
    entries are kept, not rebuilt."""
    if len(u) < len(v):
        u, v = v, u
    for pair, e in v:
        i = bisect_left(u, (pair,))
        if i < len(u) and u[i][0] == pair:
            u = u[:i] + ((pair, u[i][1] + e),) + u[i + 1 :]
        else:
            u = u[:i] + ((pair, e),) + u[i:]
    return u


def _largest_exponents(terms) -> dict:
    top: dict = {}
    for m in terms:
        for pair, e in m:
            if e > top.get(pair, 0):
                top[pair] = e
    return top


def _packing_shifts(a, b) -> dict:
    """Bit offset per variable of a or b; a field holds the sum of the two
    operands' largest exponents there, so no product overflows it."""
    top_a, top_b = _largest_exponents(a), _largest_exponents(b)
    shift, offset = {}, 0
    for pair in top_a.keys() | top_b.keys():
        shift[pair] = offset
        offset += (top_a.get(pair, 0) + top_b.get(pair, 0)).bit_length()
    return shift


def _pack(u: Monomial, shift: dict) -> int:
    packed = 0
    for pair, e in u:
        packed += e << shift[pair]
    return packed


def monomial_degree(u: Monomial) -> int:
    return sum(e for _, e in u)


class Polynomial:
    """Immutable-by-convention sparse polynomial {monomial: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # every ring operation ends here, so a whole Fraction it produces
        # (y*1/2 + y*1/2) is stored as the int the parser would give
        self.terms = {
            m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for m, c in (terms or {}).items()
            if c
        }

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({ONE: c})

    @classmethod
    def variable(cls, pair) -> "Polynomial":
        return cls({((Pair(*pair), 1),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.constant(other).terms
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        total = dict(self.terms)
        for m, c in other.terms.items():
            total[m] = total.get(m, 0) + c
        return Polynomial(total)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) < 2 or len(b) < 2:
            total: dict = {}
            for mu, cu in a.items():
                for mv, cv in b.items():
                    m = monomial_mul(mu, mv)
                    total[m] = total.get(m, 0) + cu * cv
            return Polynomial(total)
        # Packed exponents: one bit field per variable, as wide as the largest
        # exponent the product can reach there, so a monomial product is one
        # integer addition and keys collide only for equal monomials.  Each
        # distinct result monomial is built once, from its first (mu, mv).
        shift = _packing_shifts(a, b)
        packed_b = [(_pack(mv, shift), cv, mv) for mv, cv in b.items()]
        total = {}
        first = {}
        for mu, cu in a.items():
            pu = _pack(mu, shift)
            for pv, cv, mv in packed_b:
                key = pu + pv
                if key in total:
                    total[key] += cu * cv
                else:
                    total[key] = cu * cv
                    first[key] = mu, mv
        return Polynomial({monomial_mul(*first[key]): c for key, c in total.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = self if e else Polynomial.constant(1)
        for _ in range(e - 1):
            result = result * self
        return result

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def degree_in(self, pair) -> int:
        pair = Pair(*pair)
        best = 0
        for m in self.terms:
            for p, e in m:
                if p == pair:
                    best = max(best, e)
        return best

    def variables(self) -> set:
        return {p for m in self.terms for p, _ in m}

    def __repr__(self) -> str:
        return f"Polynomial({canonical_string(self)!r})"


def partial_derivative(p: Polynomial, v) -> Polynomial:
    v = Pair(*v)
    total: dict = {}
    for m, c in p.terms.items():
        for i, (pair, e) in enumerate(m):
            if pair == v:
                lowered = ((pair, e - 1),) if e > 1 else ()
                # lowering one exponent is injective, so no two terms collide
                total[m[:i] + lowered + m[i + 1 :]] = c * e
                break
    return Polynomial(total)


def _brackets_with(a: Polynomial, betas, ideal: PatternIdeal) -> dict:
    """{a, y_beta} for every beta, as {beta: {monomial: coefficient}} with
    zero sums kept: the sum over the terms c*m of a and their variables
    y_alpha^e of [alpha, beta] * e*c * m/y_alpha * y_gamma.  One pass over
    a's terms; each variable's (total, y_gamma, sign) rows, over the betas
    whose bracket with it is nonzero, are looked up once."""
    totals = {beta: {} for beta in betas}
    partners: dict = {}
    for m, c in a.terms.items():
        for k, (alpha, e) in enumerate(m):
            try:
                rows = partners[alpha]
            except KeyError:
                rows = partners[alpha] = [
                    (totals[beta], ((term.pair, 1),), term.coefficient)
                    for beta in totals
                    if (term := bracket(alpha, beta, ideal)).pair is not None
                ]
            if rows:
                lowered = m[:k] + ((alpha, e - 1),) + m[k + 1 :] if e > 1 else m[:k] + m[k + 1 :]
                for total, gamma, sign in rows:
                    key = monomial_mul(lowered, gamma)
                    total[key] = total.get(key, 0) + sign * e * c
    return totals


def poisson_bracket(a: Polynomial, b: Polynomial, ideal: PatternIdeal) -> Polynomial:
    """{a, b} = sum of {a, y_beta} * db/dy_beta over the variables of b, the
    Leibniz rule in b; brackets landing in the ideal vanish."""
    total: dict = {}
    for beta, terms in _brackets_with(a, b.variables(), ideal).items():
        for m, c in (Polynomial(terms) * partial_derivative(b, beta)).terms.items():
            total[m] = total.get(m, 0) + c
    return Polynomial(total)


def evaluate(p: Polynomial, f: LinearForm) -> int | Fraction:
    """p at f, each distinct entry y_pair^e of p's monomials raised once."""
    basis = f.algebra.columns
    values = f.lookup
    powers: dict = {}
    total = 0
    for m, c in p.terms.items():
        prod = c
        for entry in m:
            power = powers.get(entry)
            if power is None:
                pair, e = entry
                if pair not in basis:
                    raise MissingCoordinateError(pair)
                power = powers[entry] = values.get(pair, 0) ** e
            prod *= power
        total += prod
    return total


# --- text form -------------------------------------------------------------


def canonical_string(p: Polynomial) -> str:
    """Deterministic rendering: greatest term first, "c*y[i,j]^e*..." pieces.

    Terms are in graded order, ties broken lexicographically with greater
    variables (in the column order on positions, `succ_key`) weighted first;
    within one monomial the variables print in ascending (row, col) order.
    Unit coefficients and unit exponents are omitted.
    """
    if not p:
        return "0"
    # one key per term; (col, -row) is succ_key flattened into the entry
    order = sorted(
        p.terms, key=lambda m: (-sum([e for _, e in m]), sorted([(col, -row, -e) for (row, col), e in m]))
    )
    rendered: dict = {}
    pieces: list[str] = []
    for m in order:
        c = p.terms[m]
        factors = []
        for entry in m:
            text = rendered.get(entry)
            if text is None:
                (row, col), e = entry
                text = rendered[entry] = f"y[{row},{col}]^{e}" if e > 1 else f"y[{row},{col}]"
            factors.append(text)
        mag = -c if c < 0 else c
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append("-" + body if c < 0 else body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


# One whole term: an optional sign, then factors joined by '*', then the
# whitespace up to the next sign or the end.  A number factor is followed only
# by '*', a sign or the end, so it always spans the token `_tokens` reads.
# The patterns are compiled on first use, through re's own cache, so that a
# process which only prints polynomials does not pay for them.
_FACTOR = r"y\[\s*\d+\s*,\s*\d+\s*\](?:\s*\^\s*\d+)?|\d+(?:/\d+)?"
_TERM = rf"\s*(?:([+-])\s*)?((?:{_FACTOR})(?:\s*\*\s*(?:{_FACTOR}))*)\s*(?=[+-]|\Z)"


def _factor(text: str):
    """A factor string, read through `_tokens`, as a number or as (pair,
    exponent); None where `_tokens` refuses one of its tokens."""
    try:
        (kind, value, _), *rest = _tokens(text)
    except PolynomialSyntaxError:
        return None
    if kind != "var":
        return value
    e = rest[1][1] if rest[0][0] == "^" else 1
    # y^0 is the number 1, so a term's exponents are never zero
    return (value, e) if e else 1


def parse_polynomial(text: str) -> Polynomial:
    """Inverse of canonical_string (tolerant about whitespace).

    Read a whole term per match, each distinct factor string converted once;
    on any text this pass does not take, `_first_error` raises the first
    error in reading order with its position.
    """
    term, factors = re.compile(_TERM), re.compile(_FACTOR)
    total: dict = {}
    seen: dict = {}
    pos = 0
    while True:
        match = term.match(text, pos)
        if match is None:
            _first_error(text)
        sign, body = match.groups()
        if sign == "+" and not pos:  # the text form never starts with '+'
            _first_error(text)
        coeff = -1 if sign == "-" else 1
        exponents: dict = {}
        for piece in factors.findall(body):
            value = seen.get(piece)
            if value is None:
                value = seen[piece] = _factor(piece)
                if value is None:
                    _first_error(text)
            if type(value) is tuple:
                pair, e = value
                exponents[pair] = exponents.get(pair, 0) + e
            else:
                coeff *= value
        monomial = tuple(sorted(exponents.items()))
        total[monomial] = total.get(monomial, 0) + coeff
        pos = match.end()
        if pos == len(text):
            return Polynomial(total)


# the empty `stray` alternative comes last: it matches only where no token
# or the end of the text does, i.e. at a character no token starts with
_TOKEN = re.compile(
    r"\s*(?:(?P<var>y\[\s*(?P<row>\d+)\s*,\s*(?P<col>\d+)\s*\])"
    r"|(?P<ratio>\d+/\d+)|(?P<num>\d+)|(?P<op>[+\-*^])|(?P<end>\Z)|(?P<stray>))"
)


def _tokens(text: str):
    """Yield (kind, value, position) per token of text, up to and including
    ("end", "", len(text)); an operator is its own kind and value, "num" is
    an integer literal and "ratio" a literal a/b."""
    pos, kind = 0, None
    while kind != "end":
        match = _TOKEN.match(text, pos)
        kind = match.lastgroup
        value, start, pos = match.group(kind), match.start(kind), match.end()
        if kind == "stray":
            raise PolynomialSyntaxError("unexpected character", start)
        try:
            if kind == "var":
                value = Pair(int(match.group("row")), int(match.group("col")))
            elif kind == "num":
                value = int(value)
            elif kind == "ratio":
                value = _exact(value)
        except ZeroDivisionError:
            raise PolynomialSyntaxError("zero denominator", start) from None
        except ValueError:  # int() refuses a literal over its digit limit
            raise PolynomialSyntaxError("number has too many digits", start) from None
        if kind == "op":
            kind = value
        elif kind == "var" and not value.row > value.col >= 1:
            raise PolynomialSyntaxError(f"y[{value.row},{value.col}] is not strictly lower-triangular", start)
        yield kind, value, start


def _first_error(text: str):
    """Walk the tokens of a text the term pass refused through the grammar,
    and raise its first error in reading order; it always raises."""
    tokens = _tokens(text)
    kind, value, pos = next(tokens)
    if kind == "end":
        raise PolynomialSyntaxError("empty input", 0)
    if kind == "+":
        raise PolynomialSyntaxError("unexpected leading '+'", pos)
    while True:
        if kind in ("+", "-"):
            kind, value, pos = next(tokens)
        while True:
            if kind in ("num", "ratio"):
                kind, value, pos = next(tokens)
            elif kind == "var":
                kind, value, pos = next(tokens)
                if kind == "^":
                    caret = pos
                    kind, value, pos = next(tokens)
                    if kind == "end":
                        raise PolynomialSyntaxError("dangling '^'", caret)
                    if kind != "num":
                        raise PolynomialSyntaxError("exponent must be an integer", pos)
                    kind, value, pos = next(tokens)
            elif kind == "end":
                raise PolynomialSyntaxError("incomplete term", pos)
            else:
                raise PolynomialSyntaxError(f"unexpected '{value}'", pos)
            if kind != "*":
                break
            kind, value, pos = next(tokens)
        if kind == "end":
            raise ConsistencyError(f"the term pass refused {text!r}, which reads as a polynomial")
        if kind not in ("+", "-"):
            raise PolynomialSyntaxError("expected '+' or '-' between terms", pos)


# --- localized elements ----------------------------------------------------


class LocalizedElement(namedtuple("LocalizedElement", "num den")):
    """numerator / prod z_j^{e_j}; the z's are supplied separately as a table.

    The numerator is in any commutative ring with integer scalars (a
    polynomial, an int, a value at a point): the loc_* functions need only
    +, * (by ring elements and ints), **, == and bool.  The exponents are a
    Counter {j: e_j} copied from any map (none means no denominator), zeros
    dropped and a negative exponent refused, by `_replace` too.  Arithmetic
    never cancels common factors, so equality of representations is only
    sufficient, and loc_equal (cross multiplication) is the semantic test.
    """

    __slots__ = ()

    def __new__(cls, num, den: dict | None = None):
        if den and min(den.values()) < 0:
            raise ValueError(f"negative exponent in the denominator {dict(den)}")
        return tuple.__new__(cls, (num, Counter({j: e for j, e in (den or {}).items() if e})))

    @classmethod
    def _make(cls, iterable) -> "LocalizedElement":
        return cls(*iterable)


def expand_denominator(den: dict, z_table):
    """The formal denominator as a ring element (z_table[j-1] = z_j); the
    empty product is the integer 1."""
    result = 1
    for j in sorted(den):
        result = result * (z_table[j - 1] ** den[j])
    return result


def loc_add(a: LocalizedElement, b: LocalizedElement, z_table) -> LocalizedElement:
    den = a.den | b.den
    num = a.num * expand_denominator(den - a.den, z_table)
    return LocalizedElement(num + b.num * expand_denominator(den - b.den, z_table), den)


def loc_sub(a: LocalizedElement, b: LocalizedElement, z_table) -> LocalizedElement:
    return loc_add(a, loc_scale(b, -1), z_table)


def loc_mul(a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
    return LocalizedElement(a.num * b.num, a.den + b.den)


def loc_scale(a: LocalizedElement, c) -> LocalizedElement:
    return LocalizedElement(a.num * c, a.den)


def loc_divide(a: LocalizedElement, pivot: LocalizedElement, z_table) -> LocalizedElement:
    """Divide by the step pivot, whose bare numerator is the table's newest z.

    With z_table ending in z_m:  (u / D) / (z_m / D_z)  =  u * D_z / (D * z_m):
    the numerator picks up the pivot's own formal denominator, expanded,
    and the z_m exponent grows by one.
    """
    index = len(z_table)
    if not z_table or pivot.num != z_table[-1]:
        raise ConsistencyError(f"the pivot is not z_{index} of the table")
    return LocalizedElement(a.num * expand_denominator(pivot.den, z_table), a.den + Counter({index: 1}))


def loc_equal(a: LocalizedElement, b: LocalizedElement, z_table) -> bool:
    """Semantic equality by cross multiplication (no cancellation needed).

    A denominator is a product of nonzero z's, so a side with a zero
    numerator equals the other exactly when that numerator is zero too.
    """
    if not a.num or not b.num:
        return not a.num and not b.num
    return a.num * expand_denominator(b.den, z_table) == b.num * expand_denominator(a.den, z_table)


def loc_poisson_bracket(a: LocalizedElement, b: LocalizedElement, ideal: PatternIdeal) -> LocalizedElement:
    """{u/v, w/x} = {u, w} / (v*x), denominators kept formal.

    Precondition: every z in either denominator is central (verify_relations
    certifies it first), so the quotient rule's other three terms vanish.
    """
    return LocalizedElement(poisson_bracket(a.num, b.num, ideal), a.den + b.den)
