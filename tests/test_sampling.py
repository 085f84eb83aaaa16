import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.errors import ConfigError, FibresNotAdjacentError, FibresNotDistinctError
from liftlab.graphs import complete_graph, cycle_graph, petersen_graph
from liftlab.sampling import SeededRng, plant_clique, sample_lift

from _support import enumerate_lifts, lift_key, neighbours, random_lift


def test_n1_gives_unique_lift():
    lift = sample_lift(complete_graph(4), 1, SeededRng(0))
    for e in lift.base.edges:
        assert np.array_equal(lift.perms[e], [0])


@pytest.mark.parametrize("n", [0, -1, 2 ** 63, 10 ** 30])
def test_a_fibre_size_outside_int64_is_a_config_error(n):
    with pytest.raises(ConfigError, match="below 2\\*\\*63"):
        sample_lift(complete_graph(4), n, SeededRng(0))


@pytest.mark.parametrize("n", [2.5, 5.0, True, "5", None])
def test_a_fibre_size_that_is_no_integer_is_a_config_error(n):
    # 2.5 once reached numpy and came back as "no array holds a permutation"
    with pytest.raises(ConfigError, match="n must be an integer"):
        sample_lift(complete_graph(4), n, SeededRng(0))


@pytest.mark.parametrize("seed, stream", [(1.5, 0), (True, 0), (0, False), (-1, 0), (0, -2), ("1", 0)])
def test_seeds_and_streams_are_integers_of_at_least_zero(seed, stream):
    with pytest.raises(ConfigError, match="must be ints >= 0"):
        SeededRng(seed, stream)


@pytest.mark.parametrize("n", [2 ** 62, 2 ** 63 - 1])
def test_a_fibre_size_no_array_holds_is_a_memory_error(n):
    with pytest.raises(MemoryError, match=f"permutation of n = {n}$"):
        sample_lift(complete_graph(4), n, SeededRng(0))


def test_same_seed_same_serialization():
    a = sample_lift(petersen_graph(), 9, SeededRng(42, 3))
    b = sample_lift(petersen_graph(), 9, SeededRng(42, 3))
    assert a.to_json() == b.to_json()


def test_different_seed_differs():
    a = sample_lift(petersen_graph(), 9, SeededRng(42))
    b = sample_lift(petersen_graph(), 9, SeededRng(43))
    assert a.to_json() != b.to_json()


def test_different_stream_differs():
    a = sample_lift(complete_graph(4), 8, SeededRng(5, 0))
    b = sample_lift(complete_graph(4), 8, SeededRng(5, 1))
    assert a.to_json() != b.to_json()


def test_sampled_lift_passes_invariants():
    lift = sample_lift(petersen_graph(), 13, SeededRng(7))
    assert lift.num_vertices == 130
    for (i, j) in [(0, 0), (4, 7), (9, 12)]:
        assert len(set(neighbours(lift, i, j))) == 3


def test_enumerate_k3_n2_count():
    lifts = list(enumerate_lifts(complete_graph(3), 2))
    assert len(lifts) == 8
    keys = {lift_key(lf) for lf in lifts}
    assert len(keys) == 8


def test_enumerate_k3_n3_count():
    assert sum(1 for _ in enumerate_lifts(complete_graph(3), 3)) == 216


def test_sampler_uniform_chi_square():
    # 3e5 draws over the 8 lifts of K_3 with n=2; chi-square on 7 dof.
    base = complete_graph(3)
    index = {lift_key(lf): k for k, lf in enumerate(enumerate_lifts(base, 2))}
    counts = np.zeros(8)
    trials = 300_000
    for t in range(trials):
        lf = sample_lift(base, 2, SeededRng(2024, t))
        counts[index[lift_key(lf)]] += 1
    expected = trials / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # p > 0.001 for chi-square with 7 dof means chi2 below 24.32
    assert chi2 < 24.32
    assert np.all(np.abs(counts - expected) < 3 * math.sqrt(expected * 7 / 8))


def test_plant_clique_pair_matched():
    lift = sample_lift(complete_graph(3), 5, SeededRng(1))
    planted = plant_clique(lift, [0, 1])
    assert planted.perms[(0, 1)][0] == 0


def test_plant_clique_k4_in_k5():
    lift = sample_lift(complete_graph(5), 6, SeededRng(9))
    planted = plant_clique(lift, [0, 1, 2, 3])
    for a, b in itertools.combinations(range(4), 2):
        assert planted.perms[(a, b)][0] == 0
    # designated vertices form K_4; a non-designated pair stays generic
    for a, b in itertools.combinations(range(4), 2):
        assert (b, 0) in neighbours(planted, a, 0)


def test_plant_clique_s1_unchanged():
    lift = sample_lift(complete_graph(4), 5, SeededRng(3))
    assert plant_clique(lift, [2]).to_json() == lift.to_json()


def test_plant_clique_untouched_edges():
    lift = sample_lift(complete_graph(4), 5, SeededRng(4))
    planted = plant_clique(lift, [0, 1])
    for e in lift.base.edges:
        if e != (0, 1):
            assert np.array_equal(planted.perms[e], lift.perms[e])


def test_plant_clique_rejects_non_adjacent():
    lift = sample_lift(cycle_graph(5), 4, SeededRng(5))
    with pytest.raises(FibresNotAdjacentError):
        plant_clique(lift, [0, 2])


def test_plant_clique_rejects_repeats():
    lift = sample_lift(complete_graph(4), 4, SeededRng(6))
    with pytest.raises(FibresNotDistinctError):
        plant_clique(lift, [1, 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9))
def test_sampling_is_regular_and_deterministic(seed, n):
    rng = SeededRng(seed)
    a = sample_lift(complete_graph(4), n, rng)
    b = sample_lift(complete_graph(4), n, rng)
    assert a.to_json() == b.to_json()
    ones = np.ones((4, n))
    from liftlab.graphs import LiftVector, apply_adjacency

    assert np.allclose(apply_adjacency(a, LiftVector(ones)).values, 3.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plant_preserves_matchings(seed):
    lift = random_lift(complete_graph(5), 7, np.random.default_rng(seed))
    planted = plant_clique(lift, [0, 2, 4])
    for e in planted.base.edges:
        assert sorted(planted.perms[e]) == list(range(7))
