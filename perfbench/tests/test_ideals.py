import random

import pytest

from ideals import MAX_N, ideal_from_thresholds, random_ideals, threshold_vector
from orbitdiag import enumerate_pattern_ideals, validate_pattern_ideal


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_every_draw_is_a_pattern_ideal(n):
    for ideal in random_ideals(n, 30, seed=7):
        assert validate_pattern_ideal(n, ideal.members) == ideal


def test_threshold_vectors_are_weakly_increasing_and_in_range():
    rng = random.Random(3)
    for n in (2, 5, 20):
        for _ in range(200):
            r = threshold_vector(n, rng)
            assert len(r) == n - 1
            assert all(j + 1 <= value <= n + 1 for j, value in enumerate(r, start=1))
            assert list(r) == sorted(r)


def test_same_seed_same_draw_and_seeds_differ():
    assert random_ideals(16, 10, seed=5) == random_ideals(16, 10, seed=5)
    assert random_ideals(16, 10, seed=5) != random_ideals(16, 10, seed=6)


def test_draws_reach_every_ideal_about_equally():
    # 14 ideals at n=4: 2800 draws put about 200 on each if the draw is uniform.
    counts = {}
    for ideal in random_ideals(4, 2800, seed=11):
        counts[ideal.members] = counts.get(ideal.members, 0) + 1
    assert set(counts) == {ideal.members for ideal in enumerate_pattern_ideals(4)}
    assert min(counts.values()) > 140 and max(counts.values()) < 260


def test_thresholds_map_to_the_enumerated_ideals():
    assert ideal_from_thresholds(3, (2, 3)).members == frozenset({(2, 1), (3, 1), (3, 2)})
    assert ideal_from_thresholds(3, (4, 4)).members == frozenset()


@pytest.mark.parametrize("n", [1, MAX_N + 1])
def test_sizes_outside_the_range_are_refused(n):
    with pytest.raises(ValueError):
        random_ideals(n, 1, seed=0)
