"""Exact sparse polynomials, the Poisson bracket, and localized elements."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitdiag import polyring
from orbitdiag.core import (
    ConsistencyError,
    LinearForm,
    Pair,
    QuotientAlgebra,
    bracket,
    enumerate_pattern_ideals,
    random_form,
    succ_key,
    validate_pattern_ideal,
)
from orbitdiag.polyring import (
    LocalizedElement,
    MissingCoordinateError,
    Polynomial,
    PolynomialSyntaxError,
    canonical_string,
    evaluate,
    expand_denominator,
    loc_add,
    loc_divide,
    loc_equal,
    loc_mul,
    loc_poisson_bracket,
    loc_sub,
    parse_polynomial,
    partial_derivative,
    poisson_bracket,
)

UT3 = validate_pattern_ideal(3, [])
UT4 = validate_pattern_ideal(4, [])


def y(row, col):
    return Polynomial.variable(Pair(row, col))


VARS4 = [Pair(*p) for p in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]]

coefficients = st.integers(-4, 4).map(Fraction)
monomials = st.dictionaries(st.sampled_from(VARS4), st.integers(1, 2), max_size=3)


@st.composite
def polynomials(draw):
    total = Polynomial()
    for _ in range(draw(st.integers(0, 3))):
        term = Polynomial.constant(draw(coefficients))
        for pair, exp in draw(monomials).items():
            term = term * Polynomial.variable(pair) ** exp
        total = total + term
    return total


# --- ring arithmetic ---------------------------------------------------------


def test_basic_arithmetic():
    assert (y(2, 1) + y(3, 1)) + (-y(2, 1)) == y(3, 1)
    assert y(2, 1) * y(2, 1) == y(2, 1) ** 2
    assert Fraction(1, 2) * (2 * y(3, 1)) == y(3, 1)
    assert y(2, 1) - y(2, 1) == Polynomial()
    assert not (y(2, 1) - y(2, 1))


def test_ring_operations_store_integral_results_as_int():
    # a sum or product of Fractions that comes out whole is stored as the
    # int the parser would give, not as Fraction(k, 1)
    half = Fraction(1, 2)
    whole = (half * (2 * y(2, 1)), half * y(2, 1) + half * y(2, 1), half * y(2, 1) * (2 * y(3, 1)))
    for p in whole:
        assert all(type(c) is int for c in p.terms.values())
    assert (half * y(2, 1) + y(2, 1)).terms == {((Pair(2, 1), 1),): Fraction(3, 2)}


def test_degrees():
    assert Polynomial().degree() == -1
    assert Polynomial.constant(5).degree() == 0
    p = y(3, 2) * y(4, 1) ** 2 + y(2, 1)
    assert p.degree() == 3


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial() == a
    assert a * Polynomial.constant(1) == a


# exponents at and around powers of two, so that products fill the packed
# exponent fields of polyring._product up to their top bits
EDGE_EXPONENTS = [1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 129, 255, 256]
nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
edge_coefficients = st.one_of(nonzero, st.builds(Fraction, nonzero, st.integers(1, 4)))
edge_monomials = st.dictionaries(
    st.sampled_from(VARS4), st.sampled_from(EDGE_EXPONENTS), max_size=3
).map(lambda exponents: tuple(sorted(exponents.items())))


@st.composite
def wide_polynomials(draw):
    """2 to 30 terms over the six variables of ut(4), so operands share variables."""
    return Polynomial(draw(st.dictionaries(edge_monomials, edge_coefficients, min_size=2, max_size=30)))


def reference_product(a, b):
    """Term by term: one monomial_mul per pair of terms, zeros dropped, whole
    Fractions stored as ints."""
    total = {}
    for mu, cu in a.terms.items():
        for mv, cv in b.terms.items():
            m = polyring.monomial_mul(mu, mv)
            total[m] = total.get(m, 0) + cu * cv
    return {
        m: c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c
        for m, c in total.items()
        if c
    }


@given(wide_polynomials(), wide_polynomials())
def test_product_matches_term_by_term_reference(a, b):
    # in (a + b)(a - b) the cross terms cancel to zero
    for u, v in [(a, b), (a + b, a - b)]:
        got, expected = (u * v).terms, reference_product(u, v)
        assert list(got.items()) == list(expected.items())
        assert [type(c) for c in got.values()] == [type(c) for c in expected.values()]


one_term_polynomials = st.builds(lambda m, c: Polynomial({m: c}), edge_monomials, edge_coefficients)


def assert_product_matches_reference_fold(factors):
    expected = Polynomial.constant(1).terms
    for w in factors:
        expected = reference_product(Polynomial(expected), w)
    got = polyring._product(factors).terms
    assert list(got.items()) == list(expected.items())
    assert [type(c) for c in got.values()] == [type(c) for c in expected.values()]
    # monomials read back under one layout share their entry tuples
    assert len({id(e) for m in got for e in m}) == len({e for m in got for e in m})


# (x + y)(x - y) cancels xy; kept as a zero, it would place x*y^2 before -y^3
# when multiplied by y + x; a drawn case of four factors with exponents up to 256
# takes longer than hypothesis's default deadline of 200 ms
@settings(deadline=None)
@example([y(2, 1) + y(3, 1), y(2, 1) - y(3, 1), y(3, 1) + y(2, 1)])
@given(st.lists(st.one_of(wide_polynomials(), one_term_polynomials), max_size=4))
def test_product_of_several_factors_matches_the_reference_fold(factors):
    assert_product_matches_reference_fold(factors)


def test_product_fills_every_field_to_the_sum_of_the_tops():
    # each factor has one term at all of its largest exponents, so the product
    # reaches y[2,1]^256 * y[3,1]^8 * y[3,2]^16, the top bit of every field
    factors = [
        y(2, 1) ** 255 * y(3, 1) * y(3, 2) + y(2, 1),
        y(2, 1) * y(3, 1) ** 3 * y(3, 2) ** 7 - y(3, 1),
        y(3, 1) ** 4 * y(3, 2) ** 8 + 3,
    ]
    assert_product_matches_reference_fold(factors)
    top = ((Pair(2, 1), 256), (Pair(3, 1), 8), (Pair(3, 2), 16))
    assert polyring._product(factors).terms[top] == 1


# --- derivatives and the Poisson bracket ----------------------------------------


def test_partial_derivative():
    assert partial_derivative(y(3, 2) * y(4, 1), Pair(4, 1)) == y(3, 2)
    assert partial_derivative(y(2, 1), Pair(3, 1)) == Polynomial()
    assert partial_derivative(y(2, 1) ** 3, Pair(2, 1)) == 3 * y(2, 1) ** 2


def test_bracket_on_generators():
    assert poisson_bracket(y(3, 2), y(2, 1), UT3) == y(3, 1)
    assert poisson_bracket(y(2, 1), y(3, 2), UT3) == -y(3, 1)
    assert poisson_bracket(y(3, 1), y(2, 1), UT3) == Polynomial()


def test_bracket_of_determinant_with_generator():
    det = y(3, 2) * y(4, 1) - y(3, 1) * y(4, 2)
    assert poisson_bracket(det, y(2, 1), UT4) == Polynomial()


def test_bracket_respects_the_ideal():
    ideal = validate_pattern_ideal(3, [(3, 1)])
    assert poisson_bracket(y(3, 2), y(2, 1), ideal) == Polynomial()


@given(polynomials(), polynomials(), polynomials())
def test_bracket_is_a_biderivation(a, b, c):
    assert poisson_bracket(a, a, UT4) == Polynomial()
    assert poisson_bracket(a, b, UT4) == -poisson_bracket(b, a, UT4)
    assert poisson_bracket(a * b, c, UT4) == (
        a * poisson_bracket(b, c, UT4) + poisson_bracket(a, c, UT4) * b
    )


@given(polynomials(), polynomials(), polynomials())
def test_bracket_jacobi(a, b, c):
    total = (
        poisson_bracket(a, poisson_bracket(b, c, UT4), UT4)
        + poisson_bracket(b, poisson_bracket(c, a, UT4), UT4)
        + poisson_bracket(c, poisson_bracket(a, b, UT4), UT4)
    )
    assert total == Polynomial()


def reference_bracket(a, b, ideal):
    """The Leibniz rule term by term: every term pair, every variable pair."""
    total = Polynomial()
    for mu, cu in a.terms.items():
        for mv, cv in b.terms.items():
            for alpha, ea in mu:
                for beta, eb in mv:
                    term = bracket(alpha, beta, ideal)
                    if term.pair is None:
                        continue
                    piece = Polynomial.constant(cu * cv * ea * eb * term.coefficient)
                    piece = piece * Polynomial.variable(term.pair)
                    for pair, e in mu:
                        piece = piece * Polynomial.variable(pair) ** (e - (pair == alpha))
                    for pair, e in mv:
                        piece = piece * Polynomial.variable(pair) ** (e - (pair == beta))
                    total = total + piece
    return total


IDEALS_UP_TO_5 = [ideal for n in range(2, 6) for ideal in enumerate_pattern_ideals(n)]


# Exponents up to 16, the powers of two and their predecessors drawn often: the
# bracket kernel packs exponents into bit fields, and y_gamma^(2^k - 1) times the
# y_gamma a bracket adds is the case that fills a field to its top.
EXPONENTS = st.one_of(st.integers(1, 16), st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16]))


@st.composite
def quotient_polynomials(draw, variables):
    total = Polynomial()
    for _ in range(draw(st.integers(0, 4))):
        term = Polynomial.constant(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        if variables:
            monomial = st.dictionaries(st.sampled_from(variables), EXPONENTS, max_size=3)
            for pair, exp in draw(monomial).items():
                term = term * Polynomial.variable(pair) ** exp
        total = total + term
    return total


@given(st.data())
def test_bracket_matches_term_by_term_reference(data):
    ideal = data.draw(st.sampled_from(IDEALS_UP_TO_5))
    variables = list(QuotientAlgebra.from_ideal(ideal).basis)
    a = data.draw(quotient_polynomials(variables))
    b = data.draw(quotient_polynomials(variables))
    assert poisson_bracket(a, b, ideal) == reference_bracket(a, b, ideal)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_bracket_fills_an_exponent_field_to_its_top(k):
    # {y[2,1], y[3,2]} = -y[3,1], so the bracket raises y[3,1]^(2^k - 1), the
    # largest exponent of y[3,1] in a, to 2^k, which needs one bit more
    ut3 = validate_pattern_ideal(3, [])
    a = y(2, 1) * y(3, 1) ** (2**k - 1) + 3 * y(2, 1) ** 2
    for b in (y(3, 2), y(3, 2) ** 2 * y(3, 1)):
        assert poisson_bracket(a, b, ut3) == reference_bracket(a, b, ut3)
    assert poisson_bracket(a, y(3, 2), ut3) == -(y(3, 1) ** (2**k)) - 6 * y(2, 1) * y(3, 1)


# --- evaluation ------------------------------------------------------------------


def algebra_form(values):
    algebra = QuotientAlgebra.from_ideal(UT4)
    return LinearForm.from_dict(algebra, {Pair(*k): Fraction(v) for k, v in values.items()})


def test_evaluate_examples():
    f = algebra_form({(3, 1): 5})
    assert evaluate(y(3, 1), f) == 5
    f = algebra_form({(3, 2): 1, (4, 1): 2, (3, 1): 3, (4, 2): 4})
    assert evaluate(y(3, 2) * y(4, 1) - y(3, 1) * y(4, 2), f) == -10
    assert evaluate(Polynomial.constant(Fraction(7, 3)), f) == Fraction(7, 3)


def test_evaluate_needs_all_coordinates():
    algebra = QuotientAlgebra.from_ideal(validate_pattern_ideal(3, [(3, 1)]))
    f = LinearForm.from_dict(algebra, {Pair(2, 1): Fraction(1)})
    with pytest.raises(MissingCoordinateError):
        evaluate(y(3, 1), f)


def test_evaluate_shares_powers_across_terms():
    # y[3,1] at exponents 1, 2 and 3 over several terms, y[3,1]^2 in two of
    # them, rational coefficients and values: c * prod v^e, term by term
    p = parse_polynomial(
        "1/2*y[3,1]^3*y[4,2] - 2/3*y[3,1]^2 + 5*y[3,1]^2*y[4,2]^2 - y[3,1]*y[4,1] + 7/4*y[4,2]"
    )
    for values in [{(3, 1): "-3/2", (4, 2): "5/7", (4, 1): 2}, {(3, 1): 4, (4, 2): "1/3"}]:
        f = algebra_form(values)
        expected = Fraction(0)
        for m, c in p.terms.items():
            for pair, e in m:
                c *= f.lookup.get(pair, 0) ** e
            expected += c
        assert evaluate(p, f) == expected


def test_evaluate_refuses_a_missing_coordinate_in_a_later_term():
    # y[2,1]^2 is raised for the first term and reused; y[3,1], outside the
    # quotient, first appears in the second term, ahead of y[4,2]
    ideal = validate_pattern_ideal(4, [(3, 1), (4, 1), (4, 2)])
    f = LinearForm.from_dict(QuotientAlgebra.from_ideal(ideal), {Pair(2, 1): Fraction(3)})
    p = Polynomial({((Pair(2, 1), 2),): 1, ((Pair(2, 1), 2), (Pair(3, 1), 1), (Pair(4, 2), 1)): 1})
    with pytest.raises(MissingCoordinateError) as info:
        evaluate(p, f)
    assert info.value.pair == Pair(3, 1)


@given(polynomials(), polynomials(), st.integers(0, 100))
def test_evaluate_is_a_ring_map(a, b, seed):
    f = random_form(QuotientAlgebra.from_ideal(UT4), 9, seed)
    assert evaluate(a + b, f) == evaluate(a, f) + evaluate(b, f)
    assert evaluate(a * b, f) == evaluate(a, f) * evaluate(b, f)


# --- canonical strings and parsing ------------------------------------------------


def test_canonical_examples():
    assert canonical_string(y(4, 1)) == "y[4,1]"
    assert canonical_string(y(3, 2) * y(4, 1) - y(3, 1) * y(4, 2)) == (
        "y[3,2]*y[4,1] - y[3,1]*y[4,2]"
    )
    assert canonical_string(Polynomial()) == "0"
    assert canonical_string(2 * y(2, 1)) == "2*y[2,1]"
    assert canonical_string(-y(2, 1)) == "-y[2,1]"
    assert canonical_string(Fraction(1, 2) * y(2, 1)) == "1/2*y[2,1]"
    assert canonical_string(y(2, 1) ** 2) == "y[2,1]^2"
    assert canonical_string(Polynomial.constant(Fraction(-3, 4))) == "-3/4"
    assert canonical_string(y(3, 1) - 2) == "y[3,1] - 2"
    assert canonical_string(-3 * y(2, 1) * y(3, 1) ** 2 + y(3, 2)) == (
        "-3*y[2,1]*y[3,1]^2 + y[3,2]"
    )


def test_term_order_is_graded():
    # higher total degree first, ties broken by the greatest variable
    p = y(4, 3) + y(2, 1) * y(4, 3) + y(4, 1)
    assert canonical_string(p) == "y[2,1]*y[4,3] + y[4,1] + y[4,3]"


# The term order canonical_string has always used, as one sort key per term:
# graded, ties broken lexicographically with greater variables (in the column
# order on positions) weighted first.
def reference_term_order(m):
    return (-sum(e for _, e in m), sorted((succ_key(pair), -e) for pair, e in m))


@st.composite
def polynomials_with_ties(draw):
    """Terms of equal degree over few variables, a variable repeated within a
    term, and Fraction coefficients."""
    total = Polynomial()
    for _ in range(draw(st.integers(0, 8))):
        term = Polynomial.constant(draw(st.fractions(-3, 3, max_denominator=4)))
        for pair in draw(st.lists(st.sampled_from(VARS4), max_size=draw(st.sampled_from([0, 2, 2, 3])))):
            term = term * Polynomial.variable(pair)
        total = total + term
    return total


@given(polynomials_with_ties())
def test_canonical_string_lists_terms_in_the_reference_order(p):
    pieces = [canonical_string(Polynomial({m: p.terms[m]})) for m in sorted(p.terms, key=reference_term_order)]
    expected = "".join(
        piece if i == 0 else (" - " + piece[1:] if piece.startswith("-") else " + " + piece)
        for i, piece in enumerate(pieces)
    )
    assert canonical_string(p) == (expected or "0")


def test_parse_examples():
    assert parse_polynomial("y[4,1]") == y(4, 1)
    assert parse_polynomial("2/3*y[2,1]^2 - y[3,1]") == (
        Fraction(2, 3) * y(2, 1) ** 2 - y(3, 1)
    )
    assert parse_polynomial("-y[2,1] + 5") == 5 - y(2, 1)
    assert parse_polynomial(" 7 ") == Polynomial.constant(7)
    # a variable repeated within a term: its exponents add
    assert parse_polynomial("y[3,1]*2*y[2,1]*y[3,1]^2") == 2 * y(2, 1) * y(3, 1) ** 3
    assert not parse_polynomial("y[3,1]*y[2,1]*y[3,1] - y[2,1]*y[3,1]^2")


def test_parse_keeps_integral_coefficients_int():
    # numbers that multiply or add up to an integer give an int coefficient,
    # as every integral scalar in the package is stored
    for text in ("1/2*2*y[2,1]", "1/2*y[2,1] + 1/2*y[2,1]"):
        p = parse_polynomial(text)
        assert p == y(2, 1)
        assert type(p.terms[((Pair(2, 1), 1),)]) is int
    third = parse_polynomial("1/3*y[2,1] + 1/3*y[2,1]")
    assert third.terms[((Pair(2, 1), 1),)] == Fraction(2, 3)


@given(polynomials())
def test_parse_round_trip(p):
    assert parse_polynomial(canonical_string(p)) == p


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("+y[2,1]", 0),
        ("y[2,1] + + y[3,1]", 9),
        ("y[2,1] y[3,1]", 7),
        ("y[2,1] * ", 9),
        ("y[2,1]^", 6),
        ("y[2,1]^y[3,1]", 7),
        ("y[2,1] @", 7),
        ("y[2,1] +", 8),
        ("1/0*y[2,1]", 0),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text)
    assert info.value.position == position


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("y[2,1] + y[1,5]", 9, "y[1,5] is not strictly lower-triangular"),
        ("y[0,0]^3", 0, "y[0,0] is not strictly lower-triangular"),
        ("3*y[2,0]", 2, "y[2,0] is not strictly lower-triangular"),
        ("y[2,1]^4/2", 7, "exponent must be an integer"),
    ],
)
def test_parse_rejects_what_the_text_form_never_writes(text, position, message):
    with pytest.raises(PolynomialSyntaxError, match=re.escape(message)) as info:
        parse_polynomial(text)
    assert info.value.position == position


# --- the token walker, as reference code -------------------------------------------
#
# The library splits a text at its signs and each term at '*', and walks the
# tokens only to locate the first error of a text it refuses; the reference reads
# every text token by token, building its terms as it goes.


def reference_walk(text):
    """The token-by-token reading of parse_polynomial, in one pass; of
    several errors the first in reading order is reported."""
    tokens = polyring._tokens(text)
    kind, value, pos = next(tokens)
    if kind == "end":
        raise PolynomialSyntaxError("empty input", 0)
    if kind == "+":
        raise PolynomialSyntaxError("unexpected leading '+'", pos)
    total: dict = {}
    while True:
        coeff = 1
        if kind in ("+", "-"):
            coeff = -1 if kind == "-" else 1
            kind, value, pos = next(tokens)
        exponents: dict = {}
        while True:
            if kind in ("num", "ratio"):
                coeff *= value
                kind, value, pos = next(tokens)
            elif kind == "var":
                pair, e = value, 1
                kind, value, pos = next(tokens)
                if kind == "^":
                    caret = pos
                    kind, value, pos = next(tokens)
                    if kind == "end":
                        raise PolynomialSyntaxError("dangling '^'", caret)
                    if kind != "num":
                        raise PolynomialSyntaxError("exponent must be an integer", pos)
                    e = value
                    kind, value, pos = next(tokens)
                exponents[pair] = exponents.get(pair, 0) + e
            elif kind == "end":
                raise PolynomialSyntaxError("incomplete term", pos)
            else:
                raise PolynomialSyntaxError(f"unexpected '{value}'", pos)
            if kind != "*":
                break
            kind, value, pos = next(tokens)
        monomial = tuple(sorted(item for item in exponents.items() if item[1]))
        total[monomial] = total.get(monomial, 0) + coeff
        if kind == "end":
            return Polynomial(total)
        if kind not in ("+", "-"):
            raise PolynomialSyntaxError("expected '+' or '-' between terms", pos)


# int() refuses a literal of more than 4300 digits, its default limit: a number,
# a ratio, an exponent or a position that long is a syntax error at its token,
# from the split reading and from the reference walker alike
LONG = "1" * 5000


@pytest.mark.parametrize(
    "text, position",
    [(LONG + "*y[2,1]", 0), ("y[2,1] - 3/" + LONG, 9), ("y[2,1]^" + LONG, 7), ("y[3,1]*y[" + LONG + ",1]", 7)],
)
def test_parse_refuses_a_literal_over_the_digit_limit(text, position):
    for parse in (parse_polynomial, reference_walk):
        with pytest.raises(PolynomialSyntaxError, match="number has too many digits") as info:
            parse(text)
        assert info.value.position == position


def test_parse_reads_a_literal_at_the_digit_limit():
    coefficient = int("7" * 4300)
    assert parse_polynomial("7" * 4300 + "*y[2,1]") == Polynomial.variable(Pair(2, 1)) * coefficient


# the token alphabet of the text form, plus one stray character and a zero denominator
PARSER_ALPHABET = ["y[2,1]", "y[3,1]", "y[4,2]", *"0123456789", "/", "+", "-", "*", "^", " ", "@", "1/0"]


@given(st.lists(st.sampled_from(PARSER_ALPHABET), max_size=12).map("".join))
def test_parse_round_trips_or_reports_a_position(text):
    try:
        p = parse_polynomial(text)
    except PolynomialSyntaxError as error:
        assert 0 <= error.position <= len(text)
    else:
        assert parse_polynomial(canonical_string(p)) == p


# beyond PARSER_ALPHABET: whitespace and leading zeros inside a variable, positions
# off the lower triangle, a spaced and a zero exponent, a whole ratio, a newline
# and an Arabic-Indic digit (which `\d` and `int` accept); then what a reading that
# splits at signs and at '*' could get wrong: a sign inside brackets, '**', two signs
# in a row, and no-break, em and information-separator spaces (which `\s` and
# `str.strip` take as whitespace)
WALKER_ALPHABET = [
    *PARSER_ALPHABET, "y[ 3 , 1 ]", "y[03,1]", "y[1,5]", "y[2,0]", "^ 2", "^0", "2/2", "1/0", "\n", "\u0663",
    "y[2,-1]", "y[-2,1]", "**", "+ -", "- +", "\u00a0", "\u2003", "\x1c",
]


def parse_outcome(parse, text):
    try:
        p = parse(text)
    except PolynomialSyntaxError as error:
        return str(error), error.position
    return [(m, c, type(c)) for m, c in p.terms.items()]


# factors of WALKER_ALPHABET joined as the text form joins them, so that many
# draws are whole polynomials and take the split reading's path; the last ones are
# near misses: a sign inside brackets, factors with no '*' between them, a
# trailing '*', a lone sign and a padded factor
FACTORS = [
    "y[2,1]", "y[4,2]", "y[ 3 , 1 ]", "y[03,1]", "y[1,5]", "y[2,0]", "3", "2/2", "1/0", "\u0663",
    "y[2,-1]", "y[-2,1]", "y[2,1] y[3,1]", "2 3", "y[2,1]*", "-", "+", "\u00a0y[3,1]\u2003",
]


@st.composite
def polynomial_texts(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        pieces.append(draw(st.sampled_from(["", "*", " + ", " - ", "\n-", "+", " "])))
        pieces.append(draw(st.sampled_from(FACTORS)) + draw(st.sampled_from(["", "", "^ 2", "^0", "^3"])))
    return "".join(pieces)


@settings(max_examples=500)
@example("-")
@example("+")
@example(" - ")
@example("\u00a0-\x1cy[2,1]\u2003")
@given(st.one_of(st.lists(st.sampled_from(WALKER_ALPHABET), max_size=16).map("".join), polynomial_texts()))
def test_term_parser_agrees_with_the_token_walker(text):
    # the split reading gives the reference walker's terms and coefficient
    # types, or its message and position
    assert parse_outcome(parse_polynomial, text) == parse_outcome(reference_walk, text)


def test_first_error_refuses_to_pass_a_text_that_reads():
    # the split reading takes every polynomial text, so reaching the end here is a bug
    with pytest.raises(ConsistencyError, match="reads as a polynomial"):
        polyring._first_error("2*y[2,1] - 1/3")


# --- localized elements -------------------------------------------------------------


def plain(p):
    return LocalizedElement(p, {})


def test_loc_add_shares_denominator():
    table = (y(4, 1),)
    a = LocalizedElement(y(2, 1), {1: 1})
    b = LocalizedElement(y(3, 1), {1: 1})
    total = loc_add(a, b, table)
    assert total.num == y(2, 1) + y(3, 1)
    assert total.den == {1: 1}


def test_loc_mul_adds_exponents():
    a = LocalizedElement(y(2, 1), {1: 1})
    b = LocalizedElement(y(3, 1), {2: 2})
    product = loc_mul(a, b)
    assert product.num == y(2, 1) * y(3, 1)
    assert product.den == {1: 1, 2: 2}


def test_loc_first_step_determinant():
    # y32 - (y31/z1)*y42 with z1 = y41 gives the 2x2 determinant over z1
    table = (y(4, 1),)
    pivot = plain(y(4, 1))
    corrected = loc_sub(
        plain(y(3, 2)),
        loc_mul(loc_divide(plain(y(3, 1)), pivot, table), plain(y(4, 2))),
        table,
    )
    assert corrected.num == y(3, 2) * y(4, 1) - y(3, 1) * y(4, 2)
    assert corrected.den == {1: 1}


def test_loc_no_cancellation():
    table = (y(4, 1),)
    redundant = LocalizedElement(y(4, 1) * y(3, 2), {1: 1})
    assert redundant.den == {1: 1}
    assert loc_equal(redundant, plain(y(3, 2)), table)
    assert redundant.num != plain(y(3, 2)).num


def test_loc_refuses_a_negative_exponent():
    # a negative exponent would otherwise surface only when the denominator
    # is expanded, and Counter arithmetic would drop it silently
    with pytest.raises(ValueError, match="negative exponent"):
        LocalizedElement(y(2, 1), {1: -1})


def test_loc_equal_is_semantic():
    table = (y(4, 1), y(3, 2))
    a = LocalizedElement(y(2, 1) * y(3, 2), {1: 1, 2: 1})
    b = LocalizedElement(y(2, 1), {1: 1})
    assert loc_equal(a, b, table)
    assert not loc_equal(a, plain(y(2, 1)), table)


def cross_multiplied(a, b, table):
    return a.num * expand_denominator(b.den, table) == b.num * expand_denominator(a.den, table)


LOC_TABLE = (y(4, 1), y(3, 2))
ZERO_OVER_Z1 = LocalizedElement(Polynomial(), {1: 2})
LOC_EQUAL_CASES = [
    # the identities above, nonzero on both sides
    (LocalizedElement(y(4, 1) * y(3, 2), {1: 1}), plain(y(3, 2))),
    (LocalizedElement(y(2, 1) * y(3, 2), {1: 1, 2: 1}), LocalizedElement(y(2, 1), {1: 1})),
    (LocalizedElement(y(2, 1) * y(3, 2), {1: 1, 2: 1}), plain(y(2, 1))),
    (plain(Polynomial.constant(1)), plain(Polynomial.constant(1))),
    # a zero numerator on one side or both, as relation identities end
    (ZERO_OVER_Z1, plain(Polynomial())),
    (ZERO_OVER_Z1, LocalizedElement(Polynomial(), {1: 1, 2: 3})),
    (ZERO_OVER_Z1, LocalizedElement(y(2, 1), {2: 1})),
    (plain(y(3, 1) - y(3, 1)), plain(Polynomial.constant(1))),
]


@pytest.mark.parametrize("a, b", LOC_EQUAL_CASES)
def test_loc_equal_agrees_with_cross_multiplication(a, b):
    assert loc_equal(a, b, LOC_TABLE) == cross_multiplied(a, b, LOC_TABLE)
    assert loc_equal(b, a, LOC_TABLE) == cross_multiplied(b, a, LOC_TABLE)


@given(polynomials(), polynomials(), st.dictionaries(st.integers(1, 2), st.integers(0, 2)),
       st.dictionaries(st.integers(1, 2), st.integers(0, 2)))
def test_loc_equal_agrees_with_cross_multiplication_when_drawn(pa, pb, da, db):
    a, b = LocalizedElement(pa, da), LocalizedElement(pb, db)
    assert loc_equal(a, b, LOC_TABLE) == cross_multiplied(a, b, LOC_TABLE)


def test_loc_equal_expands_no_denominator_when_a_side_is_zero(monkeypatch):
    def refuse(den, z_table):
        raise AssertionError("expand_denominator called")

    monkeypatch.setattr(polyring, "expand_denominator", refuse)
    assert loc_equal(ZERO_OVER_Z1, plain(Polynomial()), LOC_TABLE)
    assert not loc_equal(ZERO_OVER_Z1, LocalizedElement(y(2, 1), {2: 1}), LOC_TABLE)
    assert not loc_equal(plain(y(3, 1)), ZERO_OVER_Z1, LOC_TABLE)


def test_loc_divide_tracks_the_table():
    table = (y(4, 1),)
    q = loc_divide(LocalizedElement(y(2, 1), {1: 1}), plain(y(4, 1)), table)
    assert q.num == y(2, 1)
    assert q.den == {1: 2}
    with pytest.raises(ConsistencyError):
        loc_divide(plain(y(2, 1)), plain(y(3, 1)), table)
    # no z to divide by: the same error, not an IndexError from z_table[-1]
    with pytest.raises(ConsistencyError):
        loc_divide(plain(y(2, 1)), plain(y(3, 1)), ())


def test_loc_weyl_pair_bracket():
    # in full ut(3): p = y32, q = y21/z with z = y31, and {p, q} = 1
    table = (y(3, 1),)
    p = plain(y(3, 2))
    q = loc_divide(plain(y(2, 1)), plain(y(3, 1)), table)
    result = loc_poisson_bracket(p, q, UT3)
    assert loc_equal(result, plain(Polynomial.constant(1)), table)
    # and z is central: {z, p} = {z, q} = 0
    z = plain(y(3, 1))
    assert loc_equal(loc_poisson_bracket(z, p, UT3), plain(Polynomial()), table)
    assert loc_equal(loc_poisson_bracket(z, q, UT3), plain(Polynomial()), table)


@given(polynomials(), polynomials(), st.dictionaries(st.integers(1, 2), st.integers(0, 2)),
       st.dictionaries(st.integers(1, 2), st.integers(0, 2)), st.integers(0, 50))
def test_loc_arith_agrees_with_rationals(pa, pb, da, db, seed):
    table = (y(4, 1), y(3, 2) * y(4, 1) - y(3, 1) * y(4, 2))
    a = LocalizedElement(pa, da)
    b = LocalizedElement(pb, db)
    f = random_form(QuotientAlgebra.from_ideal(UT4), 7, seed)
    if any(evaluate(z, f) == 0 for z in table):
        return

    def value(x):
        # an empty denominator expands to the int 1, which evaluate does not take
        den = Polynomial.constant(1) * expand_denominator(x.den, table)
        return Fraction(evaluate(x.num, f), evaluate(den, f))

    va, vb = value(a), value(b)
    assert value(loc_add(a, b, table)) == va + vb
    assert value(loc_sub(a, b, table)) == va - vb
    assert value(loc_mul(a, b)) == va * vb


def test_expand_denominator():
    table = (y(4, 1), y(3, 2))
    assert expand_denominator({}, table) == Polynomial.constant(1)
    assert expand_denominator({1: 2, 2: 1}, table) == y(4, 1) ** 2 * y(3, 2)
