"""Invariant construction: step images, centrality, triangularity, relations."""

import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdiag import invariants as invariants_mod, polyring as polyring_mod
from orbitdiag.core import (
    ConsistencyError,
    LinearForm,
    Pair,
    QuotientAlgebra,
    all_pairs,
    bracket,
    coadjoint_act,
    enumerate_pattern_ideals,
    order_gt,
    random_form,
    random_unipotent,
    succ_key,
    validate_pattern_ideal,
)
from orbitdiag.diagram import StepOutOfRangeError, b_set, build_diagram
from orbitdiag.invariants import (
    CentralityError,
    InconsistentStateError,
    NotTriangularError,
    ThetaState,
    build_invariants,
    initial_state,
    theta_step,
    triangular_decompose,
    verify_centrality,
    verify_relations,
)
from orbitdiag.polyring import (
    LocalizedElement,
    Polynomial,
    canonical_string,
    evaluate,
    loc_add,
    parse_polynomial,
    partial_derivative,
    poisson_bracket,
)

EXAMPLE7 = validate_pattern_ideal(7, [(5, 1), (6, 1), (7, 1), (7, 2)])


def y(row, col):
    return Polynomial.variable(Pair(row, col))


def states_of(d):
    st = initial_state(d)
    out = [st]
    for i in range(1, d.s + 1):
        st = theta_step(st, d, i)
        out.append(st)
    return out


# --- the n = 7 worked example ------------------------------------------------------


def test_worked_example_invariants():
    d = build_diagram(EXAMPLE7)
    zs = build_invariants(d, check=True)
    assert [canonical_string(z) for z in zs] == [
        "y[4,1]",
        "y[6,2]",
        "y[7,3]",
        "y[4,1]*y[7,4] + y[3,1]*y[7,3]",
        "y[4,1]*y[5,4]*y[6,2]*y[7,3] - y[4,1]*y[5,3]*y[6,2]*y[7,4]"
        " - y[4,1]*y[5,2]*y[6,4]*y[7,3] + y[4,1]*y[5,2]*y[6,3]*y[7,4]",
    ]


def test_initial_state_is_the_identity():
    d = build_diagram(EXAMPLE7)
    state = initial_state(d)
    assert state.z_list == ()
    assert set(state.images) == set(b_set(d, 0))
    for pair, el in state.images.items():
        assert el.num == Polynomial.variable(pair)
        assert el.den == {}


def test_first_step_images():
    d = build_diagram(EXAMPLE7)
    state = theta_step(initial_state(d), d, 1)
    assert state.z_list == (y(4, 1),)
    assert set(state.images) == set(b_set(d, 1))
    # a crossed or corrected cell leaves the picture
    assert Pair(4, 1) not in state.images
    assert Pair(2, 1) not in state.images

    el = state.images[Pair(3, 2)]
    assert el.num == y(3, 2) * y(4, 1) - y(3, 1) * y(4, 2)
    assert el.den == {1: 1}

    el = state.images[Pair(6, 4)]
    assert el.num == y(4, 1) * y(6, 4) + y(3, 1) * y(6, 3) + y(2, 1) * y(6, 2)
    assert el.den == {1: 1}

    el = state.images[Pair(5, 4)]
    assert el.num == y(4, 1) * y(5, 4) + y(3, 1) * y(5, 3) + y(2, 1) * y(5, 2)
    assert el.den == {1: 1}

    # rows through the vanishing column lose those summands entirely
    el = state.images[Pair(7, 4)]
    assert el.num == y(4, 1) * y(7, 4) + y(3, 1) * y(7, 3)
    assert el.den == {1: 1}

    # untouched coordinates pass through unchanged
    el = state.images[Pair(6, 5)]
    assert el.num == y(6, 5)
    assert el.den == {}


def test_second_and_third_step_images():
    d = build_diagram(EXAMPLE7)
    s1, s2, s3 = states_of(d)[1:4]

    el = s2.images[Pair(5, 3)]
    assert canonical_string(el.num) == "y[5,3]*y[6,2] - y[5,2]*y[6,3]"
    assert el.den == {2: 1}

    el = s2.images[Pair(5, 4)]
    assert canonical_string(el.num) == (
        "y[4,1]*y[5,4]*y[6,2] - y[4,1]*y[5,2]*y[6,4]"
        " + y[3,1]*y[5,3]*y[6,2] - y[3,1]*y[5,2]*y[6,3]"
    )
    assert el.den == {1: 1, 2: 1}

    el = s2.images[Pair(7, 6)]
    assert canonical_string(el.num) == (
        "y[4,1]*y[6,2]*y[7,6] + y[4,1]*y[5,2]*y[7,5]"
        " + y[3,2]*y[4,1]*y[7,3] - y[3,1]*y[4,2]*y[7,3]"
    )
    assert el.den == {1: 1, 2: 1}

    el = s3.images[Pair(5, 4)]
    assert el.den == {1: 1, 2: 1, 3: 1}
    # its numerator is exactly the last invariant
    assert el.num == build_invariants(d, check=False)[4]


def test_final_state_is_empty():
    d = build_diagram(EXAMPLE7)
    last = states_of(d)[-1]
    assert last.images == {}
    assert len(last.z_list) == d.s


def test_steps_past_the_last_are_out_of_range():
    d = build_diagram(EXAMPLE7)
    last = states_of(d)[-1]
    with pytest.raises(StepOutOfRangeError):
        theta_step(last, d, d.s + 1)
    with pytest.raises(StepOutOfRangeError):
        verify_relations(last, d, d.s + 1)


def test_theta_step_validates_its_input():
    d = build_diagram(EXAMPLE7)
    s0 = initial_state(d)
    with pytest.raises(InconsistentStateError):
        theta_step(s0, d, 2)
    broken = ThetaState(images={}, z_list=(y(4, 1),))
    with pytest.raises(InconsistentStateError):
        theta_step(broken, d, 2)
    # ut(6): B_1 images with an empty z table.  Taken as step 2, the pivot would
    # become z_1, and the image of (4, 3) would get {1: 3} for its {1: 2, 2: 1}
    d = build_diagram(validate_pattern_ideal(6, []))
    s1 = theta_step(initial_state(d), d, 1)
    assert theta_step(s1, d, 2).images[Pair(4, 3)].den == {1: 2, 2: 1}
    with pytest.raises(InconsistentStateError, match="state is at step 0, expected 1"):
        theta_step(s1._replace(z_list=()), d, 2)


@pytest.mark.parametrize("error", [InconsistentStateError, CentralityError, NotTriangularError])
def test_failed_checks_are_consistency_errors(error):
    # the command line exits 1 on a ConsistencyError and 2 on a ValueError
    assert issubclass(error, ConsistencyError)
    assert not issubclass(error, ValueError)


# --- small algebras -----------------------------------------------------------------


def test_smallest_algebras():
    d2 = build_diagram(validate_pattern_ideal(2, []))
    assert [canonical_string(z) for z in build_invariants(d2)] == ["y[2,1]"]

    d3 = build_diagram(validate_pattern_ideal(3, []))
    assert [canonical_string(z) for z in build_invariants(d3)] == ["y[3,1]"]

    d4 = build_diagram(validate_pattern_ideal(4, []))
    assert [canonical_string(z) for z in build_invariants(d4)] == [
        "y[4,1]",
        "y[3,2]*y[4,1] - y[3,1]*y[4,2]",
    ]


def test_everything_crossed_out():
    full = validate_pattern_ideal(3, [(2, 1), (3, 1), (3, 2)])
    d = build_diagram(full)
    assert build_invariants(d) == []
    assert initial_state(d).images == {}


def test_six_by_six():
    d = build_diagram(validate_pattern_ideal(6, []))
    zs = build_invariants(d, check=True)
    assert canonical_string(zs[0]) == "y[6,1]"
    assert canonical_string(zs[1]) == "y[5,2]*y[6,1] - y[5,1]*y[6,2]"
    assert zs[2].degree() == 5
    exps, rem = triangular_decompose(zs[2], d.xi_list[2], zs[:2])
    assert exps == {2: 1, 1: 2}
    assert degree_in(rem, Pair(4, 3)) == 0


# --- triangular structure ------------------------------------------------------------


def test_triangular_shape_of_example_invariants():
    d = build_diagram(EXAMPLE7)
    zs = build_invariants(d)
    expected = [({}, "0"), ({}, "0"), ({}, "0"),
                ({1: 1}, "y[3,1]*y[7,3]"),
                ({3: 1, 2: 1, 1: 1},
                 "-y[4,1]*y[5,3]*y[6,2]*y[7,4] - y[4,1]*y[5,2]*y[6,4]*y[7,3]"
                 " + y[4,1]*y[5,2]*y[6,3]*y[7,4]")]
    for i, (want_exps, want_rem) in enumerate(expected, 1):
        exps, rem = triangular_decompose(zs[i - 1], d.xi_list[i - 1], zs[: i - 1])
        assert exps == want_exps
        assert canonical_string(rem) == want_rem


def test_triangular_rejects_bad_shapes():
    with pytest.raises(NotTriangularError) as info:
        triangular_decompose(y(2, 1) ** 2, Pair(2, 1), ())
    assert "degree" in info.value.reason

    with pytest.raises(NotTriangularError) as info:
        triangular_decompose(y(3, 1) * y(2, 1) + y(3, 2), Pair(3, 1), ())
    assert "product" in info.value.reason

    # the exponent read off Q's degree in z_1's pivot y[4,1] is 1, but
    # z_1^1 = y[4,1] is not Q = y[4,1] + 1; the witness is Q
    with pytest.raises(NotTriangularError) as info:
        triangular_decompose(y(3, 1) * (y(4, 1) + 1), Pair(3, 1), [y(4, 1)])
    assert "product" in info.value.reason
    assert info.value.witness == y(4, 1) + 1

    # an earlier entry without variables has no pivot, so no exponent is
    # read for it and nothing is divided by it
    with pytest.raises(NotTriangularError) as info:
        triangular_decompose(2 * y(3, 1), Pair(3, 1), [Polynomial.constant(2)])
    assert "product" in info.value.reason
    assert info.value.witness == Polynomial.constant(2)
    assert triangular_decompose(y(3, 1), Pair(3, 1), [Polynomial()]) == ({}, Polynomial())

    with pytest.raises(NotTriangularError) as info:
        triangular_decompose(y(3, 1) + y(2, 1), Pair(3, 1), ())
    assert "remainder" in info.value.reason
    assert info.value.witness == Pair(2, 1)


# w = y[4,1]*y[5,3] + y[4,2]*y[5,3] has degree 1 in its pivot y[5,3] and in every
# other variable.  In each Q below one exponent is 2 where every term of w has at
# most 1, and in the next test Q has a variable that w lacks.  The certificate
# compares the product of the factors with Q as polynomials, exactly, so both
# tests guard that comparison: Q must be refused and named as the witness.
STAIRCASE_W = y(4, 1) * y(5, 3) + y(4, 2) * y(5, 3)


@pytest.mark.parametrize("q", [
    y(4, 1) ** 2 * y(5, 3) + y(4, 1) * y(5, 3),
    y(4, 2) ** 2 * y(5, 3) + y(4, 2) * y(5, 3),
])
def test_staircase_rejects_an_exponent_past_the_product_bound(q):
    with pytest.raises(NotTriangularError) as info:
        triangular_decompose(y(3, 1) * q, Pair(3, 1), [STAIRCASE_W])
    assert info.value.reason == "pivot coefficient is not a product of earlier invariants"
    assert info.value.witness == q
    assert staircase_outcome(triangular_decompose, y(3, 1) * q, Pair(3, 1), [STAIRCASE_W]) == (
        staircase_outcome(reference_triangular_decompose, y(3, 1) * q, Pair(3, 1), [STAIRCASE_W])
    )


@pytest.mark.parametrize("other", [Pair(4, 2), Pair(2, 1), Pair(6, 5)])
def test_staircase_rejects_a_variable_no_factor_has(other):
    # w = y[4,1]*y[5,3] + y[5,3]: Q has w's shape with y[4,1] traded for a variable
    # outside every factor, so it has no field in the product's layout
    w = y(4, 1) * y(5, 3) + y(5, 3)
    q = Polynomial.variable(other) * y(5, 3) + y(5, 3)
    with pytest.raises(NotTriangularError) as info:
        triangular_decompose(y(3, 1) * q, Pair(3, 1), [w])
    assert info.value.reason == "pivot coefficient is not a product of earlier invariants"
    assert info.value.witness == q
    assert triangular_decompose(y(3, 1) * w, Pair(3, 1), [w]) == ({1: 1}, Polynomial())


def test_staircase_decomposition_digest_up_to_n7():
    # every exponent map and remainder for every ideal with n <= 7, hashed;
    # the digest was recorded from the greedy trial division that the
    # degree read replaced, so both reach the same exponents
    digest = hashlib.sha256()
    for n in range(2, 8):
        for ideal in enumerate_pattern_ideals(n):
            d = build_diagram(ideal)
            zs = build_invariants(d, check=False)
            for i, z in enumerate(zs, 1):
                exps, rem = triangular_decompose(z, d.xi_list[i - 1], zs[: i - 1])
                digest.update(repr((
                    n, sorted(tuple(p) for p in ideal.members), i,
                    sorted(exps.items()), canonical_string(rem),
                )).encode())
    assert digest.hexdigest() == (
        "bfdbe0c0f2d517a49ac571e8a652281edf4f2e992cc85998cffa2cfe972afd76"
    )


# --- the staircase split, as reference code ------------------------------------------
#
# The library splits z in one pass and reads the exponents off degree tables;
# the reference takes a route of its own: the degree in y_xi, the partial
# derivative, and a product grown newest first whose own degree is read back.


def degree_in(p, pair):
    return max((e for m in p.terms for q, e in m if q == pair), default=0)


def reference_triangular_decompose(z, xi, earlier):
    xi = Pair(*xi)
    if degree_in(z, xi) != 1:
        raise NotTriangularError("degree in the pivot variable is not 1", (tuple(xi), degree_in(z, xi)))
    q = partial_derivative(z, xi)
    exponents = {}
    product = Polynomial.constant(1)
    for j in range(len(earlier), 0, -1):
        least = max(earlier[j - 1].variables(), key=succ_key, default=None)
        if least is None:
            continue
        e = degree_in(q, least) - degree_in(product, least)
        if e > 0:
            exponents[j] = e
            product = product * earlier[j - 1] ** e
    if product != q:
        raise NotTriangularError("pivot coefficient is not a product of earlier invariants", q)
    remainder = Polynomial({m: c for m, c in z.terms.items() if all(p != xi for p, _ in m)})
    for v in sorted(remainder.variables()):
        if not order_gt(v, xi):
            raise NotTriangularError("remainder touches a variable not above the pivot", tuple(v))
    return exponents, remainder


def staircase_outcome(decompose, z, xi, earlier):
    """(exponents, remainder), or (reason, witness) of the failed check."""
    try:
        return decompose(z, xi, earlier)
    except NotTriangularError as error:
        return error.reason, error.witness


def corruptions(z, xi, n):
    """z with a y_xi^2 term, without y_xi, with a term of y_xi*Q dropped,
    and with a remainder term below the pivot."""
    pivot = Polynomial.variable(xi)
    with_xi = Polynomial({m: c for m, c in z.terms.items() if any(p == xi for p, _ in m)})
    yield z + 3 * pivot**2
    yield 3 * pivot**2 + z  # the y_xi^2 term met first
    yield z - with_xi
    yield z - Polynomial(dict([next(iter(with_xi.terms.items()))]))
    least = Pair(n, n - 1)
    if least != xi:
        yield z - 2 * Polynomial.variable(least)


def test_staircase_split_matches_the_reference_up_to_n6():
    reasons = set()
    for ideal in IDEALS_UP_TO_6:
        d = build_diagram(ideal)
        zs = invariants_of(ideal)
        for i, z in enumerate(zs, 1):
            xi, earlier = d.xi_list[i - 1], zs[: i - 1]
            assert triangular_decompose(z, xi, earlier) == reference_triangular_decompose(z, xi, earlier)
            for bad in corruptions(z, xi, ideal.n):
                got = staircase_outcome(triangular_decompose, bad, xi, earlier)
                assert got == staircase_outcome(reference_triangular_decompose, bad, xi, earlier)
                reasons.add(got[0])
    assert reasons == {
        "degree in the pivot variable is not 1",
        "pivot coefficient is not a product of earlier invariants",
        "remainder touches a variable not above the pivot",
    }


HEAVY11 = validate_pattern_ideal(
    11, [(r, c) for c, low in enumerate([3, 7, 7, 8, 8, 8, 10, 11, 11], 1) for r in range(low, 12)]
)


def test_full_ut10_checks_pass_and_catch_a_non_central_sum():
    # z_5 of the full ut(10) has 9936 terms with exponents up to 27: both exact
    # checks run on it, and adding y[2,1]*z_4 leaves brackets that do not cancel
    ideal = validate_pattern_ideal(10, [])
    zs = build_invariants(build_diagram(ideal), check=True)
    assert (len(zs[4].terms), max(e for m in zs[4].terms for _, e in m)) == (9936, 27)
    assert not verify_centrality(zs[4] + y(2, 1) * zs[3], ideal)


def test_staircase_split_matches_the_reference_on_a_heavy_invariant():
    # z_10 of this n = 11 ideal is y[11,10] * z_1^2 z_2^2 z_3 ... z_9 unreduced
    d = build_diagram(HEAVY11)
    zs = build_invariants(d, check=False)
    z, xi, earlier = zs[9], d.xi_list[9], zs[:9]
    assert len(z.terms) == 1650
    exponents, remainder = triangular_decompose(z, xi, earlier)
    assert (exponents, remainder) == reference_triangular_decompose(z, xi, earlier)
    assert exponents == {9: 1, 8: 1, 7: 1, 6: 1, 5: 1, 4: 1, 3: 1, 2: 2, 1: 2}
    assert not remainder


# --- centrality -----------------------------------------------------------------------


def test_centrality_of_invariants():
    d = build_diagram(EXAMPLE7)
    for z in build_invariants(d):
        assert verify_centrality(z, EXAMPLE7)


def test_centrality_rejects_noninvariants():
    ut3 = validate_pattern_ideal(3, [])
    assert verify_centrality(y(3, 1), ut3)
    assert not verify_centrality(y(2, 1), ut3)
    assert not verify_centrality(y(3, 2) + y(3, 1), ut3)
    # [y21, y32] = y31 lies in this ideal, so y21 is central in its quotient
    assert verify_centrality(y(2, 1), validate_pattern_ideal(3, [(3, 1)]))


def test_centrality_brackets_once_per_generator_outside_the_ideal(monkeypatch):
    seen = []

    def recording_bracket(a, b, ideal):
        seen.append((tuple(a), tuple(b)))
        return bracket(a, b, ideal)

    def consulted():
        # one pass over z's terms: each (variable, generator) pair is
        # bracketed at most once, however many terms hold the variable
        assert len(seen) == len(set(seen))
        generators = list(dict.fromkeys(b for _, b in seen))
        seen.clear()
        return generators

    # the one {a, y_beta} kernel lives in polyring and looks bracket up there
    monkeypatch.setattr(polyring_mod, "bracket", recording_bracket)
    assert verify_centrality(y(10, 1), validate_pattern_ideal(10, []))
    assert consulted() == [(i + 1, i) for i in range(1, 10)]
    # (2,1) lies in this ideal, so only y[3,2] and y[4,3] are bracketed
    assert verify_centrality(y(4, 2), validate_pattern_ideal(4, [(2, 1), (3, 1), (4, 1)]))
    assert consulted() == [(3, 2), (4, 3)]
    # y[3,2] does not commute with y[2,1]; all generators are bracketed in
    # the same pass, so the verdict comes after the last of them
    assert not verify_centrality(y(3, 2), validate_pattern_ideal(4, []))
    assert consulted() == [(2, 1), (3, 2), (4, 3)]
    # z_3 of ut(6): its terms share variables, and each pair is still bracketed once
    ideal = validate_pattern_ideal(6, [])
    z = build_invariants(build_diagram(ideal), check=False)[-1]
    assert sum(len(m) for m in z.terms) > len(z.variables())
    assert verify_centrality(z, ideal)
    generators = [(i + 1, i) for i in range(1, 6)]
    assert len(seen) == len(z.variables()) * len(generators)
    assert consulted() == generators


def test_centrality_sums_brackets_across_variables():
    # every term of z_2*z_3 has a variable that brackets nonzero with some
    # generator, so the product is central only because those brackets cancel
    # across terms and variables; adding y[2,1]*z_3 leaves some uncancelled
    ideal = validate_pattern_ideal(6, [])
    _, z2, z3 = build_invariants(build_diagram(ideal))
    product = z2 * z3
    assert verify_centrality(product, ideal)
    assert central_on_every_coordinate(product, ideal)
    broken = product + y(2, 1) * z3
    assert not verify_centrality(broken, ideal)
    assert not central_on_every_coordinate(broken, ideal)


# --- the Poisson bracket, as reference code -----------------------------------------
#
# The library sums {a, y_beta} in one place and builds both the centrality
# test and `poisson_bracket` on it, so the reference the two are checked
# against takes a route of its own: one product of partial derivatives per
# bracketing pair of variables.


def reference_poisson_bracket(a, b, ideal):
    """{a, b} = sum of [y_alpha, y_beta] * da/dy_alpha * db/dy_beta over the
    variables of a and b; brackets landing in the ideal vanish."""
    b_vars = b.variables()
    total = Polynomial()
    for alpha in a.variables():
        da = None
        for beta in b_vars:
            term = bracket(alpha, beta, ideal)
            if term.pair is None:
                continue
            if da is None:
                da = partial_derivative(a, alpha)
            gamma = Polynomial({((term.pair, 1),): term.coefficient})
            total = total + da * (gamma * partial_derivative(b, beta))
    return total


def central_on_every_coordinate(z, ideal):
    """The reference: bracket z with each coordinate of the quotient."""
    return all(
        not reference_poisson_bracket(z, Polynomial.variable(eta), ideal)
        for eta in all_pairs(ideal.n)
        if eta not in ideal.members
    )


def test_bracket_matches_the_reference_on_large_operands():
    # the property tests draw small polynomials; these products of the
    # invariants and step-2 images of the ut(8) walk have hundreds of terms
    ideal = validate_pattern_ideal(8, [])
    states = states_of(build_diagram(ideal))
    _, _, z3, z4 = states[-1].z_list
    image = {pair: element.num for pair, element in states[2].images.items()}
    a, b = z4 * image[Pair(6, 5)], z3 * image[Pair(5, 3)]
    assert (len(z4.terms), len(a.terms), len(b.terms)) == (68, 342, 33)
    sizes = []
    for x, w in [(a, b), (b, a), (a, y(5, 3)), (z4, y(2, 1)), (z3 * z4, a)]:
        got = poisson_bracket(x, w, ideal)
        assert got == reference_poisson_bracket(x, w, ideal)
        sizes.append(len(got.terms))
    # z3 and z4 are central, so the last two cancel across every term
    assert sizes == [1010, 1010, 294, 0, 0]


IDEALS_UP_TO_6 = [
    ideal for n in range(2, 7) for ideal in enumerate_pattern_ideals(n) if ideal.dim_quotient
]


@lru_cache(maxsize=None)
def invariants_of(ideal):
    return build_invariants(build_diagram(ideal), check=False)


def test_generator_centrality_agrees_on_single_coordinates():
    # y[k,1] brackets nonzero with y[k+1,k] alone among the generators, so a
    # skipped generator shows here
    for ideal in IDEALS_UP_TO_6:
        for eta in QuotientAlgebra.from_ideal(ideal).basis:
            p = Polynomial.variable(eta)
            assert verify_centrality(p, ideal) == central_on_every_coordinate(p, ideal)


# Exponents up to 16, the powers of two and their predecessors drawn often, so
# that a bracket raising y_gamma^(2^k - 1) fills its packed field to the top.
EXPONENTS = st.one_of(st.integers(1, 16), st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16]))


def test_generator_centrality_matches_every_coordinate():
    verdicts = set()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        ideal = data.draw(st.sampled_from(IDEALS_UP_TO_6))
        zs = invariants_of(ideal)
        basis = QuotientAlgebra.from_ideal(ideal).basis
        p = Polynomial()
        for _ in range(data.draw(st.integers(0, 3))):
            c = data.draw(st.integers(-3, 3))
            p = p + c * data.draw(st.sampled_from(zs)) ** data.draw(st.integers(0, 2))
        for _ in range(data.draw(st.integers(0, 2))):
            term = Polynomial.constant(data.draw(st.integers(1, 3)))
            for _ in range(data.draw(st.integers(1, 3))):
                term = term * Polynomial.variable(data.draw(st.sampled_from(basis))) ** data.draw(EXPONENTS)
            p = p + term
        verdict = verify_centrality(p, ideal)
        assert verdict == central_on_every_coordinate(p, ideal)
        verdicts.add(verdict)

    check()
    assert verdicts == {True, False}


# --- the commutation relations as a whole -----------------------------------------------


def test_relations_validate_state():
    d = build_diagram(EXAMPLE7)
    with pytest.raises(InconsistentStateError):
        verify_relations(initial_state(d), d, 2)


def test_relations_hold_for_the_example():
    d = build_diagram(EXAMPLE7)
    states = states_of(d)
    counts = []
    for i in range(1, d.s + 1):
        report = verify_relations(states[i - 1], d, i)
        assert report.passed
        assert report.counterexample is None
        assert report.state == states[i]
        counts.append(report.checked)
    assert counts == [136, 66, 21, 6, 0]


def test_relations_report_the_first_failing_identity():
    # ut(4), step 1 with y[2,1] added to y[3,2] beforehand.  The Weyl pairs
    # and Z are untouched (checks 1-10 pass); the image of (3,2) becomes
    # y32 + y21 - y31*y42/y41, which commutes with Z (check 11) but not with
    # p_2 = y42: {y21, y42} = -y41.  The count runs through that check.
    d = build_diagram(validate_pattern_ideal(4, []))
    images = dict(initial_state(d).images)
    images[Pair(3, 2)] = LocalizedElement(y(3, 2) + y(2, 1), {})
    report = verify_relations(ThetaState(images, ()), d, 1)
    assert (len(report.state.z_list), report.checked, report.passed, report.counterexample) == (
        1, 12, False, "image of (3, 2) does not commute with p_2"
    )


def test_relations_refuse_a_pivot_that_is_not_central():
    # "4: 4,1" after step 1, with y[4,3]^2 added to the image of the step-2 pivot (4,2):
    # z_2 = y[4,3]^2 + y[4,2] does not commute with y[3,2], so the bracket's premise
    # fails and the step is refused before any identity is counted.
    d = build_diagram(validate_pattern_ideal(4, [(4, 1)]))
    prev = states_of(d)[1]
    images = dict(prev.images)
    images[Pair(4, 2)] = loc_add(images[Pair(4, 2)], LocalizedElement(y(4, 3) ** 2), prev.z_list)
    report = verify_relations(ThetaState(images, prev.z_list), d, 2)
    assert canonical_string(report.state.z_list[1]) == "y[4,3]^2 + y[4,2]"
    assert (report.checked, report.passed, report.counterexample) == (
        0, False, "z_2 does not commute with every coordinate"
    )


def test_relations_hold_for_the_full_ut9():
    d = build_diagram(validate_pattern_ideal(9, []))
    state = initial_state(d)
    counts = []
    for i in range(1, d.s + 1):
        report = verify_relations(state, d, i)
        assert report.passed, (i, report.counterexample)
        counts.append(report.checked)
        state = report.state
    assert counts == [630, 210, 45, 3]


def test_relations_hold_exhaustively_up_to_n4():
    for n in range(2, 5):
        for ideal in enumerate_pattern_ideals(n):
            d = build_diagram(ideal)
            st = initial_state(d)
            for i in range(1, d.s + 1):
                report = verify_relations(st, d, i)
                assert report.passed
                st = report.state
            assert st.images == {}


def test_build_with_check_succeeds_up_to_n5():
    for n in range(2, 6):
        for ideal in enumerate_pattern_ideals(n):
            d = build_diagram(ideal)
            zs = build_invariants(d, check=True)
            assert len(zs) == d.s
            for z, xi in zip(zs, d.xi_list):
                assert degree_in(z, xi) == 1
                for pair in ideal.members:
                    assert degree_in(z, pair) == 0


# --- scalar types ------------------------------------------------------------------


def test_scalars_stay_int_on_integer_input_up_to_n6():
    # a scalar is an int, or a Fraction only when it is not integral; never a float
    def exact(x):
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)

    for n in range(2, 7):
        for index, ideal in enumerate(enumerate_pattern_ideals(n)):
            algebra = QuotientAlgebra.from_ideal(ideal)
            zs = build_invariants(build_diagram(ideal), check=False)
            f = random_form(algebra, 100, index)
            g = random_unipotent(n, 5, index)
            moved = coadjoint_act(g, f, ideal)
            scalars = [c for z in zs for c in z.terms.values()]
            scalars += [value for _, value in f.values + moved.values]
            scalars += [x for row in g.entries for x in row]
            scalars += [evaluate(z, form) for z in zs for form in (f, moved)]
            assert all(type(x) is int for x in scalars), ideal
            halves = LinearForm.from_dict(algebra, {p: Fraction(v, 2) for p, v in f.values})
            moved = coadjoint_act(g, halves, ideal)
            assert all(exact(value) for _, value in halves.values + moved.values), ideal


def test_parsed_invariants_keep_int_coefficients():
    # the parser is an input boundary: integral numbers come back as ints
    assert [type(c) for c in parse_polynomial("2*y[2,1] - 3").terms.values()] == [int, int]
    for n in range(2, 7):
        for index, ideal in enumerate(enumerate_pattern_ideals(n)):
            f = random_form(QuotientAlgebra.from_ideal(ideal), 100, index)
            for z in build_invariants(build_diagram(ideal), check=False):
                parsed = parse_polynomial(canonical_string(z))
                assert parsed == z
                assert all(type(c) is int for c in parsed.terms.values()), ideal
                assert type(evaluate(parsed, f)) is int, ideal


# --- the library walk at a point -------------------------------------------------------

P = 2**61 - 1


class Residue:
    """An integer mod P, with only what the localized arithmetic uses."""

    def __init__(self, v):
        self.v = v % P

    def __add__(self, other):
        return Residue(self.v + other.v)

    def __mul__(self, other):
        return Residue(self.v * (other if type(other) is int else other.v))

    __rmul__ = __mul__

    def __pow__(self, e):
        return Residue(pow(self.v, e, P))

    def __eq__(self, other):
        return type(other) is Residue and self.v == other.v

    def __bool__(self):
        return bool(self.v)


def walk_at_a_point(d, f):
    """The z's at f mod P: theta_step from the values of the variables there."""
    values = f.lookup
    images = {pair: LocalizedElement(Residue(values.get(pair, 0))) for pair in b_set(d, 0)}
    state = ThetaState(images, ())
    for i in range(1, d.s + 1):
        state = theta_step(state, d, i)
    return [z.v for z in state.z_list]


def test_walk_at_a_point_matches_the_symbolic_invariants():
    ideals = [ideal for n in range(2, 7) for ideal in enumerate_pattern_ideals(n)]
    ideals.append(validate_pattern_ideal(10, []))
    assert len(ideals) == 196
    for index, ideal in enumerate(ideals):
        d = build_diagram(ideal)
        f = random_form(QuotientAlgebra.from_ideal(ideal), P, index)
        assert walk_at_a_point(d, f) == [evaluate(z, f) % P for z in invariants_of(ideal)], ideal


# the full algebra and one more ideal at each size the symbolic walk cannot finish
PAST_THE_SYMBOLIC_WALK = [
    validate_pattern_ideal(12, []),
    validate_pattern_ideal(12, [(12, 1), (11, 1), (10, 1), (12, 2), (11, 2)]),
    validate_pattern_ideal(16, []),
    validate_pattern_ideal(16, [(16, 1), (15, 1), (16, 2), (16, 3)]),
    validate_pattern_ideal(20, []),
    validate_pattern_ideal(20, [(20, 1), (19, 1), (18, 1), (17, 1), (20, 2), (19, 2), (20, 3), (20, 4)]),
]


def values_at_a_point_and_moved(ideal, seed):
    """The z's mod P at a seeded form f and at g.f, for a seeded g."""
    d = build_diagram(ideal)
    f = random_form(QuotientAlgebra.from_ideal(ideal), P, seed)
    moved = coadjoint_act(random_unipotent(ideal.n, P, seed), f, ideal)
    return walk_at_a_point(d, f), walk_at_a_point(d, moved)


def test_walk_at_a_point_is_invariant_up_to_n20():
    held = 0
    for ideal in PAST_THE_SYMBOLIC_WALK:
        for seed in range(3):
            at_f, at_moved = values_at_a_point_and_moved(ideal, seed)
            assert at_f == at_moved and all(at_f), (ideal, seed)
            held += len(at_f)
    assert held == 165


def test_walk_at_a_point_with_a_flipped_correction_moves(monkeypatch):
    # class 1.1 then adds Y[a,t] * Y[k,b] / Z instead of subtracting it
    monkeypatch.setattr(invariants_mod, "loc_sub", polyring_mod.loc_add)
    for ideal in PAST_THE_SYMBOLIC_WALK:
        for seed in range(3):
            at_f, at_moved = values_at_a_point_and_moved(ideal, seed)
            assert at_f != at_moved, (ideal, seed)
