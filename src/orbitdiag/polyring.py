"""Sparse polynomials over exact rationals in the variables y[i,j].

Variables are lower-triangular positions outside the ideal; a monomial is
stored as a tuple of ((row,col), exponent) entries sorted by (row, col),
and a polynomial as a dict mapping monomials to nonzero ints, or Fractions
where not integral; only the parser builds Fractions, so integer input
stays integer.  Products and the exact checks add monomials as packed integer keys,
one bit field per variable sized from a table of bounds; no other module sees a key.
On top of the plain ring sit:

  * the Poisson bracket induced by the structure constants (images inside
    the ideal drop to zero),
  * localized elements numerator / prod z_j^{e_j} whose denominators are
    formal products of the invariants built so far — arithmetic takes
    common denominators by multiset union and never cancels,
  * a deterministic text form ("2*y[3,1]*y[4,2]^2 - y[2,1]") and a parser
    for it, which splits the text at its signs and each term at '*'.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from functools import reduce
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


def _layout(bounds: dict) -> tuple:
    """Bit offset per variable, in (row, col) order, its field as wide as bounds[pair]
    needs: keys within the bounds add without a carry, so equal keys are equal monomials.
    The fields (pair, offset, mask, entries) are what `_unpack` reads a key back through."""
    shift, fields, offset = {}, [], 0
    for pair in sorted(bounds):
        width = bounds[pair].bit_length()
        shift[pair] = offset
        fields.append((pair, offset, (1 << width) - 1, {}))
        offset += width
    return shift, fields


def _pack(u: Monomial, shift: dict) -> int:
    packed = 0
    for pair, e in u:
        packed += e << shift[pair]
    return packed


def _unpack(key: int, fields) -> Monomial:
    """The monomial of a key; each field keeps the entries it has built, so the monomials
    read back under one layout share their (pair, e) tuples, as monomial_mul's do."""
    m = []
    for pair, offset, mask, entries in fields:
        e = key >> offset & mask
        if e:
            entry = entries.get(e)
            if entry is None:
                entry = entries[e] = pair, e
            m.append(entry)
    return tuple(m)


def _product(factors) -> "Polynomial":
    """The product of the factors, multiplied in the given order on packed keys whose
    fields hold the sum of the factors' largest exponents, which bounds every partial
    product; each result monomial is built once, at the end."""
    bounds: dict = {}
    for w in factors:
        for pair, top in _largest_exponents(w.terms).items():
            bounds[pair] = bounds.get(pair, 0) + top
    shift, fields = _layout(bounds)
    product = {0: 1}
    for w in factors:
        packed = [(_pack(m, shift), c) for m, c in w.terms.items()]
        total: dict = {}
        for ku, cu in product.items():
            for kv, cv in packed:
                key = ku + kv
                if key in total:
                    total[key] += cu * cv
                else:
                    total[key] = cu * cv
        product = {key: c for key, c in total.items() if c}
    return Polynomial({_unpack(key, fields): c for key, c in product.items()})


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
        # A side of fewer than two terms stays term by term: packing costs more
        # than it saves there.  Replaying one seed-1 batch's such products (Python
        # 3.11.7, 2 cores, medians of 15 runs), sweep's 1 269 took 2.9 ms term by
        # term against 10.9 ms through _product, and symbolic's 484 took 2.6 ms
        # against 6.6 ms.
        if len(a) < 2 or len(b) < 2:
            total: dict = {}
            for mu, cu in a.items():
                for mv, cv in b.items():
                    m = monomial_mul(mu, mv)
                    total[m] = total.get(m, 0) + cu * cv
            return Polynomial(total)
        return _product((self, other))

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
        return max((sum(e for _, e in m) for m in self.terms), default=-1)

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
    """{a, y_beta} for the betas where it is nonzero, as {beta: {monomial: coefficient}}
    with no zero coefficient: the sum over the terms c*m of a and their variables
    y_alpha^e of [alpha, beta] * e*c * m/y_alpha * y_gamma.  Each (alpha, beta) bracket
    is looked up once and made a packed-key step y_gamma/y_alpha; gamma's field holds its
    largest exponent in a plus one, so no step carries, and a monomial is built only for
    a sum that does not cancel."""
    totals = {beta: {} for beta in betas}
    top = _largest_exponents(a.terms)
    bounds = dict(top)
    rows = []
    for alpha in top:
        for beta, total in totals.items():
            sign, gamma = bracket(alpha, beta, ideal)
            if gamma is not None:
                rows.append((alpha, total, gamma, sign))
                bounds[gamma] = top.get(gamma, 0) + 1
    shift, fields = _layout(bounds)
    steps = {alpha: [] for alpha in top}
    for alpha, total, gamma, sign in rows:
        steps[alpha].append((total, (1 << shift[gamma]) - (1 << shift[alpha]), sign))
    for m, c in a.terms.items():
        key = _pack(m, shift)
        for alpha, e in m:
            for total, step, sign in steps[alpha]:
                total[key + step] = total.get(key + step, 0) + sign * e * c
    brackets = {}
    for beta, total in totals.items():
        terms = {_unpack(key, fields): c for key, c in total.items() if c}
        if terms:
            brackets[beta] = terms
    return brackets


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
    # one key per term, (-degree, sorted entry triples); each distinct entry's
    # triple, (col, -row) being succ_key flattened into it, and text built once
    triples, rendered, keys = {}, {}, {}
    for m in p.terms:
        key, degree = [], 0
        for entry in m:
            triple = triples.get(entry)
            if triple is None:
                (row, col), e = entry
                triple = triples[entry] = col, -row, -e
                rendered[entry] = f"y[{row},{col}]^{e}" if e > 1 else f"y[{row},{col}]"
            key.append(triple)
            degree += entry[1]
        key.sort()
        keys[m] = -degree, key
    pieces: list[str] = []
    for m in sorted(keys, key=keys.__getitem__):
        c = p.terms[m]
        mag = -c if c < 0 else c
        body = "*".join(map(rendered.__getitem__, m))
        if not m:
            body = str(mag)
        elif mag != 1:
            body = str(mag) + "*" + body
        if not pieces:
            pieces.append("-" + body if c < 0 else body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


# One factor, padded with whitespace: it holds no sign and no '*', so those split
# every text the parser takes into terms and factors.  Patterns are compiled on first
# use, through re's cache, so a process that only prints polynomials pays nothing.
_FACTOR = r"\s*(?:y\[\s*\d+\s*,\s*\d+\s*\](?:\s*\^\s*\d+)?|\d+(?:/\d+)?)\s*"


def _factor(text: str):
    """A factor string, read through `_tokens`, as a number or as (pair,
    exponent); None where it is not one factor or `_tokens` refuses a token."""
    if not re.fullmatch(_FACTOR, text):
        return None
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

    Split the text once at its signs and each term at '*', each distinct piece
    checked and converted once.  On a leading '+', an empty term or a piece that is
    not one factor, `_first_error` raises the first error in reading order.
    """
    parts = ["+", *re.split(r"([+-])", text)]  # [sign, term, sign, term, ...]
    if len(parts) > 2 and not parts[1].strip():  # a sign opens the text: the first term is signed
        if parts[2] == "+":  # the text form never starts with '+'
            _first_error(text)
        del parts[:2]
    total: dict = {}
    seen: dict = {}
    for sign, body in zip(parts[::2], parts[1::2]):
        coeff = -1 if sign == "-" else 1
        entries = []
        for piece in body.split("*"):
            value = seen.get(piece)
            if value is None:
                value = seen[piece] = _factor(piece)
                if value is None:
                    _first_error(text)
            if type(value) is tuple:
                entries.append(value)
            else:
                coeff *= value
        entries.sort()
        if len(dict(entries)) < len(entries):  # a variable repeats: add its exponents
            entries = reduce(monomial_mul, [(entry,) for entry in entries], ONE)
        monomial = tuple(entries)
        total[monomial] = total.get(monomial, 0) + coeff
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
    """Walk the tokens of a text the parser refused through the grammar,
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
            raise ConsistencyError(f"the parser refused {text!r}, which reads as a polynomial")
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
