"""Witness constructions: planted cliques, bipartitions, embedded subgraphs,
and pattern-certified eigenvalue bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.dyadic import DyadicBandVector, DyadicScale
from liftlab.eigensolve import symmetric_eigenvalues
from liftlab.errors import (
    BadHalfSizesError,
    DenseGuardError,
    FibresNotAdjacentError,
    FibresNotDistinctError,
    LiftlabError,
    SubgraphTooLargeError,
    WitnessMismatchError,
)
from liftlab.graphs import (
    LiftVector,
    apply_adjacency,
    complete_graph,
    cycle_graph,
    identity_lift,
    induced_adjacency,
    petersen_graph,
)
from liftlab.patterns import extract_pattern
from liftlab.sampling import SeededRng, plant_clique, sample_lift
from liftlab.spectra import lambda_star
from liftlab.witnesses import (
    PatternWitnessBounds,
    bipartition_witness,
    clique_witness,
    embed_subgraph_witness,
    pattern_witness_bound,
)

from _support import neighbours, oracle_centered, random_lift


def oracle_rayleigh(lift, vector):
    """Quotient recomputed against the entry-by-entry dense centered matrix."""
    x = vector.flat()
    mat = oracle_centered(lift)
    return abs(float(x @ mat @ x)) / float(x @ x)


# --- clique witness -------------------------------------------------------------------


def test_clique_witness_planted_triple():
    lift = plant_clique(sample_lift(complete_graph(4), 30, SeededRng(1)), [0, 1, 2])
    w = clique_witness(lift, [(0, 0), (1, 0), (2, 0)])
    assert w.rayleigh == pytest.approx(2.0, abs=1e-10)
    assert w.bound_met and w.claimed_bound == 2.0
    assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-10 * math.sqrt(w.vector.norm_sq)
    assert w.rayleigh == pytest.approx(oracle_rayleigh(lift, w.vector), abs=1e-9)


def test_clique_witness_single_vertex():
    lift = sample_lift(complete_graph(4), 12, SeededRng(2))
    w = clique_witness(lift, [(2, 5)])
    assert w.rayleigh == pytest.approx(0.0, abs=1e-12)
    assert w.bound_met
    assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-12


def test_clique_witness_unplanted_triple_misses():
    lift = sample_lift(complete_graph(4), 30, SeededRng(5))
    triple = [(0, 0), (1, 0), (2, 0)]
    present = all(
        (b, 0) in neighbours(lift, a, 0)
        for k, (a, _) in enumerate(triple) for (b, _) in triple[k + 1:])
    assert not present  # this seed leaves the matched triple unconnected
    w = clique_witness(lift, triple)
    assert w.rayleigh < 2.0 and not w.bound_met


def test_clique_witness_exact_eigenvector_when_all_fibres():
    lift = plant_clique(sample_lift(complete_graph(4), 20, SeededRng(3)), [0, 1, 2, 3])
    w = clique_witness(lift, [(i, 0) for i in range(4)])
    residual = LiftVector(apply_adjacency(lift, w.vector).values - 3.0 * w.vector.values)
    assert math.sqrt(residual.norm_sq) <= 1e-10
    assert w.rayleigh == pytest.approx(3.0, abs=1e-10)


def test_clique_witness_exact_on_support_fibres():
    lift = plant_clique(sample_lift(complete_graph(5), 15, SeededRng(4)), [0, 2, 3])
    w = clique_witness(lift, [(0, 0), (2, 0), (3, 0)])
    image = apply_adjacency(lift, w.vector).values - 2.0 * w.vector.values
    support = image[[0, 2, 3], :]
    assert float(np.abs(support).max()) <= 1e-10
    assert w.rayleigh == pytest.approx(2.0, abs=1e-10)


def test_clique_witness_validation():
    lift = sample_lift(cycle_graph(4), 6, SeededRng(6))
    with pytest.raises(FibresNotDistinctError):
        clique_witness(lift, [(0, 1), (0, 2)])
    with pytest.raises(FibresNotAdjacentError):
        clique_witness(lift, [(0, 0), (2, 0)])
    tiny = identity_lift(complete_graph(3), 1)
    with pytest.raises(LiftlabError):
        clique_witness(tiny, [(0, 0), (1, 0)])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_clique_witness_never_beats_lambda_star(seed):
    rng = np.random.default_rng(seed)
    lift = random_lift(complete_graph(4), int(rng.integers(3, 12)), rng)
    fibres = [0, 1, 2]
    verts = [(i, int(rng.integers(lift.n))) for i in fibres]
    w = clique_witness(lift, verts)
    assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-10
    report = lambda_star(lift, method="dense")
    assert w.rayleigh <= report.lambda_star + 1e-6


# --- bipartition witness --------------------------------------------------------------


def test_bipartition_identity_halves():
    lift = identity_lift(complete_graph(4), 10)
    w = bipartition_witness(lift, [range(5)] * 4)
    assert w.rayleigh == pytest.approx(3.0, abs=1e-10)  # equals d
    assert w.bound_met
    assert w.vector.norm_sq == pytest.approx(1.0)
    assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-12
    assert w.rayleigh == pytest.approx(oracle_rayleigh(lift, w.vector), abs=1e-9)


def test_bipartition_edge_count_formula():
    rng = np.random.default_rng(8)
    lift = random_lift(complete_graph(4), 12, rng)
    halves = [rng.choice(12, size=6, replace=False) for _ in range(4)]
    # count the matched pairs inside the halves by brute force
    sets = [set(int(x) for x in half) for half in halves]
    counts = [sum(1 for j in sets[u] if int(perm[j]) in sets[v])
              for (u, v), perm in lift.perms.items()]
    w = bipartition_witness(lift, halves)
    total = sum(4 * e - 12 for e in counts)
    assert w.rayleigh == pytest.approx(abs(total) * 2 / (4 * 12), rel=1e-9, abs=1e-12)
    # K = (worst surplus e - n/4) sqrt(d) / n, and the claim is 2 K sqrt(d)
    assert w.claimed_bound == pytest.approx(2 * 3 * min(e - 3 for e in counts) / 12, rel=1e-12)


def test_bipartition_reads_one_shot_halves_once():
    lift = random_lift(complete_graph(4), 12, np.random.default_rng(8))
    halves = [list(range(6)), [0, 2, 4, 6, 8, 10], list(range(3, 9)), [1, 2, 3, 9, 10, 11]]
    w = bipartition_witness(lift, halves)
    once = bipartition_witness(lift, [iter(half) for half in halves])
    assert once.vector.values.tobytes() == w.vector.values.tobytes()
    assert (once.rayleigh, once.claimed_bound) == (w.rayleigh, w.claimed_bound)


def test_bipartition_random_halves_report():
    rng = np.random.default_rng(9)
    lift = random_lift(complete_graph(4), 50, rng)
    halves = [rng.choice(50, size=25, replace=False) for _ in range(4)]
    w = bipartition_witness(lift, halves)
    assert w.rayleigh >= 0.0
    assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-12
    report = lambda_star(lift, method="dense")
    assert w.rayleigh <= report.lambda_star + 1e-6


def test_bipartition_validation():
    lift = identity_lift(complete_graph(3), 5)  # odd n
    with pytest.raises(BadHalfSizesError):
        bipartition_witness(lift, [range(2)] * 3)
    lift = identity_lift(complete_graph(3), 6)
    with pytest.raises(BadHalfSizesError):
        bipartition_witness(lift, [range(3)] * 2)  # wrong number of fibres
    with pytest.raises(BadHalfSizesError):
        bipartition_witness(lift, [range(3), range(3), range(4)])
    with pytest.raises(BadHalfSizesError):
        bipartition_witness(lift, [range(3), range(3), [4, 5, 6]])


# --- embedded subgraph witness ---------------------------------------------------------


def test_embed_single_vertex():
    lift = identity_lift(complete_graph(4), 100)
    w = embed_subgraph_witness(lift, [(0, 3)])
    assert w.claimed_bound == -3.5 and w.bound_met
    assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-12


def test_embed_planted_clique():
    lift = plant_clique(sample_lift(complete_graph(4), 100, SeededRng(3)), [0, 1, 2, 3])
    w = embed_subgraph_witness(lift, [(i, 0) for i in range(4)])
    assert w.claimed_bound == pytest.approx(3.0 - 3.5, abs=1e-9)
    assert w.rayleigh >= w.claimed_bound and w.bound_met
    assert w.rayleigh == pytest.approx(3.0, abs=0.1)
    report = lambda_star(lift, method="dense")
    assert w.rayleigh <= report.lambda_star + 1e-6


def test_embed_star_subgraphs_hit_root_degree():
    # an induced star with d leaves has top eigenvalue sqrt(d)
    for base, expect in [(petersen_graph(), math.sqrt(3)),
                         (cycle_graph(5), math.sqrt(2))]:
        lift = identity_lift(base, 200)
        centre = (0, 0)
        w = embed_subgraph_witness(lift, [centre] + neighbours(lift, *centre))
        assert w.claimed_bound == pytest.approx(expect - 3.5, abs=1e-9)
        assert w.bound_met
        assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-10


def test_embed_random_subgraph_inequality():
    rng = np.random.default_rng(12)
    lift = random_lift(complete_graph(4), 400, rng)
    flat = rng.choice(4 * 400, size=30, replace=False)
    verts = [(int(k // 400), int(k % 400)) for k in flat]
    w = embed_subgraph_witness(lift, verts)
    assert w.bound_met
    assert np.abs(w.vector.values.sum(axis=1)).max() <= 1e-10


def test_embed_validation():
    lift = identity_lift(petersen_graph(), 50)  # n - h sqrt(n) < 0
    with pytest.raises(SubgraphTooLargeError):
        embed_subgraph_witness(lift, [(0, 0)])
    with pytest.raises(DenseGuardError):  # within the balancing headroom, over the guard
        embed_subgraph_witness(identity_lift(complete_graph(4), 2200),
                               [(0, j) for j in range(2001)])
    big = identity_lift(complete_graph(4), 100)
    with pytest.raises(LiftlabError):
        embed_subgraph_witness(big, [(0, 0), (0, 0)])
    with pytest.raises(LiftlabError):
        embed_subgraph_witness(big, [])


@pytest.mark.parametrize("bad", [(0, -1), (0, 100), (4, 0)])
def test_embed_rejects_vertices_outside_the_lift(bad):
    # (0, -1) once embedded position n - 1; the others escaped as IndexError
    lift = sample_lift(complete_graph(4), 100, SeededRng(2))
    with pytest.raises(LiftlabError, match="must lie in"):
        embed_subgraph_witness(lift, [bad])


# --- pattern witness bounds --------------------------------------------------------------


def test_pattern_bounds_zero_potency():
    n = 6
    lift = identity_lift(complete_graph(3), n)
    scale = DyadicScale.of(lift)
    vec = DyadicBandVector(scale, np.zeros((3, n), dtype=np.int64),
                           np.ones((3, n), dtype=bool))
    pattern, witnesses = extract_pattern(vec, lift)
    bounds = pattern_witness_bound(lift, pattern, witnesses)
    assert bounds.potency_value == 0.0
    assert bounds.spectrum_bound == pytest.approx(-40 * math.sqrt(2))
    assert bounds.subgraph_bound == pytest.approx(
        -40 * math.sqrt(2) - 3 * n * math.sqrt(10) / n)
    assert len(bounds.members) == 3 * n


def test_pattern_bounds_verified_against_spectra():
    lift = plant_clique(sample_lift(complete_graph(4), 60, SeededRng(7)), [0, 1, 2, 3])
    scale = DyadicScale.of(lift)
    exps = np.zeros((4, 60), dtype=np.int64)
    mask = np.zeros((4, 60), dtype=bool)
    mask[:, :3] = True
    pattern, witnesses = extract_pattern(DyadicBandVector(scale, exps, mask), lift)
    bounds = pattern_witness_bound(lift, pattern, witnesses)
    report = lambda_star(lift, method="dense")
    assert report.lambda_star >= bounds.spectrum_bound
    induced = induced_adjacency(lift, list(bounds.members))
    top = float(symmetric_eigenvalues(induced)[0])
    assert top >= bounds.subgraph_bound
    assert bounds.members == tuple((i, j) for i in range(4) for j in range(3))


def test_pattern_bounds_witness_mismatch():
    lift = identity_lift(complete_graph(3), 8)
    scale = DyadicScale.of(lift)
    exps = np.zeros((3, 8), dtype=np.int64)
    mask = np.zeros((3, 8), dtype=bool)
    mask[:, 0] = True
    pattern, witnesses = extract_pattern(DyadicBandVector(scale, exps, mask), lift)
    shifted = {key: (tuple(j + 1 for j in val) if key[0] == 0 else val)
               for key, val in witnesses.items()}
    with pytest.raises(WitnessMismatchError):
        pattern_witness_bound(lift, pattern, shifted)
    overlapping = {(0, 0): (0,), (0, 1): (0,), (1, 0): (0,), (2, 0): (0,)}
    with pytest.raises(WitnessMismatchError):
        pattern_witness_bound(lift, pattern, overlapping)
    with pytest.raises(WitnessMismatchError):
        pattern_witness_bound(lift, pattern, {(0, 0): (99,)})
    with pytest.raises(WitnessMismatchError):
        pattern_witness_bound(lift, pattern, {(5, 0): (0,)})


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pattern_bounds_random_realizations(seed):
    rng = np.random.default_rng(seed)
    lift = random_lift(complete_graph(4), 10, rng)
    scale = DyadicScale.of(lift)
    exps = rng.integers(0, 2, size=(4, 10))
    mask = rng.random(size=(4, 10)) < 0.4
    vec = DyadicBandVector(scale, exps.astype(np.int64) * mask, mask)
    pattern, witnesses = extract_pattern(vec, lift)
    bounds = pattern_witness_bound(lift, pattern, witnesses)
    assert isinstance(bounds, PatternWitnessBounds)
    assert bounds.subgraph_bound <= bounds.spectrum_bound
    assert len(bounds.members) == int(mask.sum())
    report = lambda_star(lift, method="dense")
    assert report.lambda_star >= bounds.spectrum_bound - 1e-9


# --- one integer rule for vertices, positions and class keys ---------------------


def _realized_k3():
    """An identity 8-lift of K_3, and the pattern and witnesses of a band vector on
    each fibre's position 0."""
    lift = identity_lift(complete_graph(3), 8)
    mask = np.zeros((3, 8), dtype=bool)
    mask[:, 0] = True
    vector = DyadicBandVector(DyadicScale.of(lift), np.zeros((3, 8), dtype=np.int64), mask)
    return (lift, *extract_pattern(vector, lift))


@pytest.mark.parametrize("witnesses", [
    {(0, 0): (0.5,), (1, 0): (0,), (2, 0): (0,)},
    {(0, 0): (False,), (1, 0): (0,), (2, 0): (0,)},
    {(0, 0.0): (0,), (1, 0): (0,), (2, 0): (0,)},
    {(0.5, 0): (0,), (1, 0): (0,), (2, 0): (0,)},
    {(0, 0, 0): (0,), (1, 0): (0,), (2, 0): (0,)},
    {(0, 0): ((0, 1),), (1, 0): (0,), (2, 0): (0,)},
], ids=["position-half", "position-bool", "exponent-float", "fibre-half", "key-triple",
        "nested-position"])
def test_pattern_witness_bound_reads_integers_only(witnesses):
    lift, pattern, found = _realized_k3()
    assert pattern_witness_bound(lift, pattern, found).members == ((0, 0), (1, 0), (2, 0))
    with pytest.raises(WitnessMismatchError, match="integers"):
        pattern_witness_bound(lift, pattern, witnesses)


@pytest.mark.parametrize("position", [2 ** 70, -(2 ** 70), 2 ** 63, 8])
def test_a_position_out_of_range_is_named_as_given(position):
    # beyond int64 the reader clips to +-2**62; the message names the input
    lift, pattern, _ = _realized_k3()
    with pytest.raises(WitnessMismatchError, match=f"^position {position} out of range$"):
        pattern_witness_bound(lift, pattern, {(0, 0): (position,), (1, 0): (0,), (2, 0): (0,)})


@pytest.mark.parametrize("vertices", [[(0, 1.5)], [(True, 0)], [(0, 1, 2)], [0]],
                         ids=["position-half", "fibre-bool", "triple", "bare-int"])
@pytest.mark.parametrize("call", [clique_witness, embed_subgraph_witness, induced_adjacency],
                         ids=["clique", "embed", "induced"])
def test_vertex_lists_read_integers_only(call, vertices):
    lift = sample_lift(complete_graph(4), 64, SeededRng(5))
    call(lift, [(0, 1)])
    with pytest.raises(LiftlabError, match="integer pairs"):
        call(lift, vertices)


@pytest.mark.parametrize("bad", [1.5, True, (0, 1)], ids=["half", "bool", "pair"])
def test_half_positions_read_integers_only(bad):
    lift = identity_lift(complete_graph(3), 4)
    # 2 matched pairs inside the halves on each edge: the quotient is 2/12 * 3 * (8 - 4) = 2
    assert bipartition_witness(lift, [[0, 1], [0, 1], [0, 1]]).rayleigh == pytest.approx(2.0)
    with pytest.raises(BadHalfSizesError, match="positions must be integers"):
        bipartition_witness(lift, [[0, bad], [0, 1], [0, 1]])
