"""The seeded streams, pinned: the same seed must keep giving the same forms,
group elements, moved forms and sampled ideals, whatever the draws are
computed with.  Digests are sha256 prefixes of the values' repr."""

import hashlib

import pytest

from orbitdiag.core import (
    Pair,
    QuotientAlgebra,
    coadjoint_act,
    random_form,
    random_unipotent,
    sample_pattern_ideals,
    validate_pattern_ideal,
)

EXAMPLE_IDEAL = validate_pattern_ideal(7, [(5, 1), (6, 1), (7, 1), (7, 2)])
SEEDS = (0, 1, 2**64 + 7)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def full(n):
    return QuotientAlgebra.from_ideal(validate_pattern_ideal(n, []))


def test_random_form_stream_is_pinned():
    assert random_form(full(3), 1000, 0).values == (
        (Pair(2, 1), 60), (Pair(3, 1), 348), (Pair(3, 2), -686),
    )
    forms = [random_form(full(n), 1000, s).values for n in (2, 5, 9) for s in SEEDS]
    forms.append(random_form(QuotientAlgebra.from_ideal(EXAMPLE_IDEAL), 1000, 3).values)
    assert digest(forms) == "b216287437dd756d"


def test_random_unipotent_stream_is_pinned():
    assert random_unipotent(3, 5, 0).entries == ((1, 0, 0), (3, 1, 0), (-3, -5, 1))
    unipotents = [random_unipotent(n, 5, s).entries for n in (2, 5, 9) for s in SEEDS]
    assert digest(unipotents) == "0ffdf64bbd2ece23"


def test_coadjoint_act_is_pinned():
    ideal = validate_pattern_ideal(4, [(4, 1)])
    moved = coadjoint_act(random_unipotent(4, 5, 2), random_form(QuotientAlgebra.from_ideal(ideal), 9, 1), ideal)
    assert moved.values == (
        (Pair(2, 1), -6), (Pair(3, 1), -5), (Pair(3, 2), -41), (Pair(4, 2), -5), (Pair(4, 3), 1),
    )
    f = random_form(QuotientAlgebra.from_ideal(EXAMPLE_IDEAL), 100, 11)
    assert digest(coadjoint_act(random_unipotent(7, 5, 12), f, EXAMPLE_IDEAL).values) == "02617cb38f27f482"


@pytest.mark.parametrize(
    "n, seed, expected",
    [
        (7, 0, "c20837b6b23c10fa"),
        (7, 3, "27f98cdba0eb021e"),
        (8, 0, "34a40f04a829bb28"),
        (8, 3, "88865c1702778341"),
    ],
)
def test_sampled_ideals_are_pinned(n, seed, expected):
    assert digest([sorted(ideal.members) for ideal in sample_pattern_ideals(n, 25, seed)]) == expected
