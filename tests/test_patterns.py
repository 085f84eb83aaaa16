"""Pattern census, potency, greedy reductions, and the counting bounds.

Reference computations here are written as plain loops over class pairs and
never call the library's aggregate tables, so library/oracle agreement checks
two independent routes.
"""

import hashlib
import importlib
import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftlab
from liftlab.dyadic import DyadicBandVector, DyadicScale, quad_form_restricted
from liftlab.errors import (
    ConfigError,
    DeviationDomainError,
    DimensionMismatchError,
    InvalidPatternError,
    LiftlabError,
    NotBandVectorError,
    TooLargeError,
)
from liftlab.graphs import BaseGraph, base_from_name, complete_graph, cycle_graph, identity_lift
from liftlab.patterns import (
    _BUDGET_FACTOR,
    _branch_floors,
    _fsums,
    _greedy_reduce,
    _members_potency,
    _peak,
    _row_sums,
    _vertex_sums,
    ClassGraph,
    ClassProfile,
    DeviationTable,
    LARGE_DEVIATION_CUTOFF,
    Pattern,
    Removal,
    ReductionReport,
    deviation_rate,
    enumerate_patterns,
    extract_pattern,
    pattern_count_bound,
    pattern_from_text,
    pattern_to_text,
    peak_potency,
    potency,
    reduce_general,
    reduce_large,
    reduce_pattern,
    reduce_small,
    reduction_to_text,
)
from liftlab.sampling import SeededRng, sample_lift

from _support import SMALL_BASES, deviation, edge_deviation, pattern_link, peak_mb, random_lift


# --- reference implementations ------------------------------------------------------


def ref_weight(exp, scale):
    return 2.0 ** exp / math.sqrt(scale.n * scale.h)


def ref_gamma_edges(pattern):
    """Class-graph edges by brute force over the base adjacency matrix."""
    adj = pattern.base.adjacency()
    verts = sorted(pattern.profile.counts)
    out = []
    for u, v in itertools.combinations(verts, 2):
        if adj[u[0], v[0]] == 1.0 and 4 ** abs(u[1] - v[1]) < pattern.scale.d:
            out.append((u, v))
    return out


def ref_terms(pattern):
    """Signed potency terms per class-graph edge, recomputed from scratch."""
    n = pattern.scale.n
    counts = pattern.profile.counts
    terms = {}
    for (u, v) in ref_gamma_edges(pattern):
        mu = counts[u] * counts[v] / n
        e = pattern.links.get((u, v), 0)
        terms[(u, v)] = ref_weight(u[1], pattern.scale) * ref_weight(v[1], pattern.scale) * (e - mu)
    return terms


def ref_peak_exhaustive(pattern):
    terms = list(ref_terms(pattern).values())
    assert len(terms) <= 16, "exhaustive oracle needs a small class graph"
    best = 0.0
    for r in range(len(terms) + 1):
        for combo in itertools.combinations(terms, r):
            best = max(best, abs(sum(combo)))
    return best


def ref_aggregate(pattern, vertex):
    """neighbour mass, tilted mass and headroom at one vertex, by loops."""
    n, d = pattern.scale.n, pattern.scale.d
    counts = pattern.profile.counts
    fibre, exp = vertex
    a = counts[vertex]
    w = ref_weight(exp, pattern.scale)
    nb = 0.0
    for (i, e), c in counts.items():
        if pattern.base.adjacency()[fibre, i] == 1.0:
            nb += ref_weight(e, pattern.scale) ** 2 * c
    tilted = 0.0
    for (u, v) in ref_gamma_edges(pattern):
        other = v if u == vertex else (u if v == vertex else None)
        if other is None:
            continue
        w2 = ref_weight(other[1], pattern.scale)
        tilted += w2 ** 2 * counts[other] * w2 / (w * math.sqrt(d))
    headroom = max(nb / (a * w * w * d), math.e * n / a)
    return nb, tilted, headroom


def ref_local_potency(pattern, members, vertex, regimes):
    cutoff = math.e ** 2 - 1.0
    n = pattern.scale.n
    counts = pattern.profile.counts
    total = 0.0
    for (u, v), term in ref_terms(pattern).items():
        other = v if u == vertex else (u if v == vertex else None)
        if other is None or other not in members:
            continue
        gap = pattern.links.get((u, v), 0) * n / (counts[u] * counts[v]) - 1.0
        regime = "large" if gap > cutoff else "small"
        if regime in regimes:
            total += term
    return abs(total)


REGIME_SETS = {"large": ("large",), "small": ("small",), "general": ("large", "small")}


def class_pairs(graph, mask):
    """(vertex, neighbour) at every masked slot of the class graph's padded
    rows, row by row."""
    verts = graph.vertices
    return [(verts[i], verts[j]) for i, j in
            zip(np.nonzero(mask)[0].tolist(), graph.nbr[mask].tolist())]


def slot(graph, u, v):
    """Row and column of neighbour v in class u's row."""
    index = {w: k for k, w in enumerate(graph.vertices)}
    i, j = index[u], index[v]
    (k,) = np.flatnonzero(graph.valid[i] & (graph.nbr[i] == j))
    return i, k


def ref_thresholds(pattern, vertex, level, branch):
    n, d = pattern.scale.n, pattern.scale.d
    a = pattern.profile.counts[vertex]
    w = ref_weight(vertex[1], pattern.scale)
    nb, tilted, headroom = ref_aggregate(pattern, vertex)
    hl = math.log(headroom) / headroom
    base = {
        "large": [level * a * w * w * math.sqrt(d), level * tilted / math.sqrt(d)],
        "small": [level * a * w * w * math.sqrt(d),
                  level * nb * a / (n * math.sqrt(d)),
                  level * nb * hl / math.sqrt(d)],
    }
    if branch in base:
        return base[branch]
    return [2.0 * t for t in base["large"] + base["small"]]


def ref_branch_total(pattern, members, regimes):
    cutoff = math.e ** 2 - 1.0
    n = pattern.scale.n
    counts = pattern.profile.counts
    total = 0.0
    for (u, v), term in ref_terms(pattern).items():
        if u not in members or v not in members:
            continue
        gap = pattern.links.get((u, v), 0) * n / (counts[u] * counts[v]) - 1.0
        if ("large" if gap > cutoff else "small") in regimes:
            total += term
    return abs(total)


def ref_verify_reduction(pattern, report, level, branch):
    """Replay the transcript: each removal must violate some condition at the
    recorded local potency, every survivor must satisfy all conditions, and
    the totals must obey the budget and the retention telescope."""
    regimes = REGIME_SETS[branch]
    everything = set(ClassGraph(pattern).vertices)
    alive = set(everything)
    for removal in report.removals:
        lp = ref_local_potency(pattern, alive, removal.vertex, regimes)
        assert lp == pytest.approx(removal.local_potency, rel=1e-9, abs=1e-12)
        thresholds = ref_thresholds(pattern, removal.vertex, level, branch)
        assert any(lp < t for t in thresholds)
        alive.remove(removal.vertex)
    assert alive == set(report.kept)
    for vertex in report.kept:
        lp = ref_local_potency(pattern, alive, vertex, regimes)
        for t in ref_thresholds(pattern, vertex, level, branch):
            assert lp >= t - max(1e-12, 1e-9 * t)
    assert report.potency_before == pytest.approx(
        ref_branch_total(pattern, everything, regimes), rel=1e-9, abs=1e-12)
    assert report.potency_after == pytest.approx(
        ref_branch_total(pattern, alive, regimes), rel=1e-9, abs=1e-12)
    assert report.removed_potency <= report.budget + 1e-9
    assert report.potency_after >= report.retention_floor - 1e-9


def random_pattern(rng, base=None, n=None):
    """A valid pattern with random class sizes and link counts; link counts
    also land on fibre-adjacent pairs outside the band."""
    base = base if base is not None else SMALL_BASES[rng.integers(len(SMALL_BASES))]
    n = n if n is not None else int(rng.integers(4, 40))
    scale = DyadicScale(n, base.h, base.d)
    width = base.d.bit_length() - 1
    lo = int(rng.integers(0, 4))
    per_class_cap = max(1, n // (width + 1))
    counts = {}
    for i in range(base.h):
        for e in range(lo, lo + width + 1):
            if rng.random() < 0.6:
                counts[(i, e)] = int(rng.integers(1, per_class_cap + 1))
    keys = sorted(counts)
    while counts and sum(c * 4 ** e for (_, e), c in counts.items()) > 10 * scale.size:
        victim = keys[rng.integers(len(keys))]
        if victim in counts:
            if counts[victim] > 1:
                counts[victim] -= 1
            else:
                del counts[victim]
    links = {}
    verts = sorted(counts)
    for u, v in itertools.combinations(verts, 2):
        if base.are_adjacent(u[0], v[0]) and rng.random() < 0.6:
            m = min(counts[u], counts[v])
            val = int(rng.integers(0, m + 1))
            if val:
                links[(u, v)] = val
    return Pattern(base, ClassProfile(scale, counts), links)


def random_band_vector(scale, rng, density=0.5):
    width = scale.d.bit_length() - 1
    lo = int(rng.integers(0, 3))
    exps = rng.integers(lo, lo + width + 1, size=(scale.h, scale.n))
    mask = rng.random(size=(scale.h, scale.n)) < density
    while mask.any() and int(np.sum((4 ** exps) * mask)) > 10 * scale.size:
        live = np.argwhere(mask)
        i, j = live[rng.integers(len(live))]
        mask[i, j] = False
    return DyadicBandVector(scale, exps.astype(np.int64), mask)


# --- class profiles -----------------------------------------------------------------


def test_profile_basics():
    scale = DyadicScale(8, 3, 4)
    prof = ClassProfile(scale, {(0, 0): 3, (0, 2): 1, (2, 1): 5, (1, 0): 0})
    assert prof.vertices == ((0, 0), (0, 2), (2, 1))
    assert prof.total == 9
    assert [prof.fibre.tolist(), prof.exponent.tolist(), prof.count.tolist()] == [
        [0, 0, 2], [0, 2, 1], [3, 1, 5]]
    for array in (prof.fibre, prof.exponent, prof.count):
        assert array.dtype == np.int64 and not array.flags.writeable


def test_profile_rejects_fibre_overflow():
    scale = DyadicScale(4, 2, 2)
    with pytest.raises(InvalidPatternError):
        ClassProfile(scale, {(0, 0): 3, (0, 1): 2})


def test_profile_norm_cap_boundary():
    scale = DyadicScale(40, 1, 1)
    # 25 entries with squared weight 16/40 square-sum to exactly 10
    ClassProfile(scale, {(0, 2): 25})
    with pytest.raises(InvalidPatternError):
        ClassProfile(scale, {(0, 2): 26})


def test_profile_rejects_wide_band():
    scale = DyadicScale(64, 2, 4)
    ClassProfile(scale, {(0, 0): 1, (1, 2): 1})  # ratio 4 = d allowed
    with pytest.raises(InvalidPatternError):
        ClassProfile(scale, {(0, 0): 1, (1, 3): 1})  # ratio 8 > d


def test_profile_rejects_bad_entries():
    scale = DyadicScale(4, 2, 2)
    with pytest.raises(InvalidPatternError):
        ClassProfile(scale, {(0, -1): 1})
    with pytest.raises(InvalidPatternError):
        ClassProfile(scale, {(0, 0): -2})
    with pytest.raises(InvalidPatternError):
        ClassProfile(scale, {(5, 0): 1})


def test_profile_from_band_vector_matches_histogram():
    scale = DyadicScale(6, 3, 4)
    rng = np.random.default_rng(7)
    vec = random_band_vector(scale, rng)
    prof = ClassProfile(vec.scale, vec.histogram())
    assert dict(prof.counts) == vec.histogram()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_profile_weight_classes_per_fibre_bounded(seed):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng)
    d = pattern.scale.d
    for distinct in Counter(fibre for fibre, _ in pattern.profile.counts).values():
        assert distinct <= math.log2(2 * d)


# --- patterns and the class graph ----------------------------------------------------


def test_pattern_link_canonicalization():
    base = complete_graph(3)
    scale = DyadicScale(5, 3, 2)
    prof = ClassProfile(scale, {(0, 0): 2, (1, 0): 3})
    pat = Pattern(base, prof, {((1, 0), (0, 0)): 2})
    assert pattern_link(pat, (0, 0), (1, 0)) == 2
    assert pattern_link(pat, (1, 0), (0, 0)) == 2
    assert pattern_link(pat, (0, 0), (2, 0)) == 0
    assert list(pat.links) == [((0, 0), (1, 0))]


def test_pattern_rejects_bad_links():
    base = cycle_graph(4)  # fibres 0 and 2 are not adjacent
    scale = DyadicScale(5, 4, 2)
    prof = ClassProfile(scale, {(0, 0): 2, (1, 0): 3, (2, 0): 1})
    with pytest.raises(InvalidPatternError):
        Pattern(base, prof, {((0, 0), (1, 0)): 3})  # exceeds min(2, 3)
    with pytest.raises(InvalidPatternError):
        Pattern(base, prof, {((0, 0), (2, 0)): 1})  # non-adjacent fibres
    with pytest.raises(InvalidPatternError):
        Pattern(base, prof, {((0, 0), (3, 0)): 1})  # empty class
    with pytest.raises(InvalidPatternError):
        Pattern(base, prof, {((0, 0), (1, 0)): -1})
    with pytest.raises(InvalidPatternError):
        Pattern(base, prof, {((0, 0), (1, 0)): 1, ((1, 0), (0, 0)): 1})


@pytest.mark.parametrize("key", [
    pytest.param(((0, 0, 1), (0,)), id="three-then-one"),
    pytest.param(((0,), (0, 1, 0)), id="one-then-three"),
    pytest.param(((0, 0), (1, 0), ()), id="three-ends"),
    pytest.param(((0, 0, 1, 0),), id="one-end-of-four"),
    pytest.param((((0, 0), (1, 0)),), id="nested-once-more"),
    pytest.param(((0, 0), 5), id="end-not-a-pair"),
])
def test_pattern_rejects_keys_that_are_not_pairs_of_pairs(key):
    # each flattens to integers that read as the link (0, 0)-(1, 0), or fails to
    scale = DyadicScale(4, 3, 2)
    prof = ClassProfile(scale, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(InvalidPatternError, match="a link is not a pair"):
        Pattern(complete_graph(3), prof, {key: 1})
    with pytest.raises(InvalidPatternError, match="a link is not a pair"):
        Pattern(complete_graph(3), prof, {((0, 0), (1, 0)): 1, key: 0})


def test_canonical_links_are_kept_and_others_rebuilt():
    base, scale = complete_graph(5), DyadicScale(40, 5, 4)
    prof = ClassProfile(scale, {(i, e): 2 for i in range(5) for e in (0, 1)})
    canon = {(u, v): 1 + (u[1] + v[0]) % 2 for u, v in itertools.combinations(prof.vertices, 2)
             if u[0] != v[0]}
    pattern = Pattern(base, prof, canon)
    assert all(a is b for a, b in zip(pattern.links, canon))  # the keys are reused
    assert list(pattern.links.items()) == list(canon.items())
    for links in (dict(reversed(canon.items())), {(v, u): c for (u, v), c in canon.items()},
                  {((np.int64(u[0]), u[1]), v): c for (u, v), c in canon.items()},
                  {key: np.int64(c) for key, c in canon.items()},
                  {((0, 0), (0, 1)): 0, **canon}, {**canon, ((4, 0), (4, 1)): 0}):
        again = Pattern(base, prof, links)
        assert list(again.links.items()) == list(canon.items())
        assert all(type(x) is int for key, c in again.links.items() for x in (*key[0], *key[1], c))
        assert np.array_equal(again.link_ends, pattern.link_ends)
        assert np.array_equal(again.link_counts, pattern.link_counts)


def test_simplex_pattern_peak_memory():
    # the K452 simplex has 101,926 links; a canonical dict is copied, not rebuilt
    h = 452
    base = complete_graph(h)
    prof = ClassProfile(DyadicScale(1000, h, h - 1), {(i, 0): 1 for i in range(h)})
    links = {((i, 0), (j, 0)): 1 for i, j in itertools.combinations(range(h), 2)}
    pattern, peak = peak_mb(lambda: Pattern(base, prof, links))
    assert peak <= 22.0
    assert len(pattern.links) == len(links)


def test_pattern_dimension_checks():
    scale = DyadicScale(5, 3, 2)
    prof = ClassProfile(scale, {(0, 0): 1})
    with pytest.raises(DimensionMismatchError):
        Pattern(cycle_graph(4), prof, {})  # h mismatch
    with pytest.raises(DimensionMismatchError):
        Pattern(complete_graph(4), ClassProfile(DyadicScale(5, 4, 2), {}), {})


def test_pattern_restricted():
    base = complete_graph(3)
    scale = DyadicScale(6, 3, 2)
    prof = ClassProfile(scale, {(0, 0): 2, (1, 0): 2, (2, 0): 2})
    links = {((0, 0), (1, 0)): 1, ((1, 0), (2, 0)): 2, ((0, 0), (2, 0)): 1}
    pat = Pattern(base, prof, links)
    sub = pat.restricted({(0, 0), (1, 0)})
    assert dict(sub.profile.counts) == {(0, 0): 2, (1, 0): 2}
    assert dict(sub.links) == {((0, 0), (1, 0)): 1}
    empty = pat.restricted(set())
    assert not empty.profile.counts and not empty.links


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_class_graph_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng)
    graph = ClassGraph(pattern)
    edges = ref_gamma_edges(pattern)
    assert class_pairs(graph, graph.upper) == edges
    assert sorted(class_pairs(graph, graph.valid)) == sorted(edges + [(v, u) for u, v in edges])
    for i in range(len(graph.vertices)):
        row = graph.nbr[i, graph.valid[i]]
        assert i not in row.tolist() and (np.diff(row) > 0).all()


def test_class_graph_band_strictness():
    # exponent gap g (weight ratio 2 ** g): adjacent only when 4 ** g < d
    for d, gap, expect in [(4, 1, 0), (5, 1, 1), (16, 2, 0), (17, 2, 1), (64, 3, 0),
                           (65, 3, 1), (2, 0, 1), (1, 0, 0)]:
        base = complete_graph(d + 1)
        scale = DyadicScale(50, d + 1, d)
        prof = ClassProfile(scale, {(0, 0): 1, (1, gap): 1})
        graph = ClassGraph(Pattern(base, prof, {}))
        assert int(graph.upper.sum()) == expect and int(graph.valid.sum()) == 2 * expect


def test_class_graph_degenerate_degree_one():
    base = BaseGraph(2, ((0, 1),))
    scale = DyadicScale(4, 2, 1)
    prof = ClassProfile(scale, {(0, 0): 1, (1, 0): 1})
    assert not ClassGraph(Pattern(base, prof, {})).valid.any()


# --- deviations -----------------------------------------------------------------------


def test_edge_deviation_exact_values():
    base = complete_graph(3)
    scale = DyadicScale(30, 3, 2)
    prof = ClassProfile(scale, {(0, 0): 2, (1, 0): 3})
    pat = Pattern(base, prof, {((0, 0), (1, 0)): 2})
    row = edge_deviation(pat, (0, 0), (1, 0))
    assert row.expected == pytest.approx(0.2)
    assert row.relative_gap == pytest.approx(9.0)
    assert row.regime == "large"
    w2 = (1 / math.sqrt(90)) ** 2
    assert row.term == pytest.approx(w2 * 1.8)


def test_edge_deviation_empty_class_convention():
    base = complete_graph(3)
    scale = DyadicScale(30, 3, 2)
    prof = ClassProfile(scale, {(0, 0): 3})
    pat = Pattern(base, prof, {})
    row = edge_deviation(pat, (0, 0), (1, 0))
    assert row.relative_gap == 1.0 and row.expected == 0.0 and row.term == 0.0


def test_regime_cutoff_is_strict():
    base = complete_graph(3)
    n = 1000
    scale = DyadicScale(n, 3, 2)
    prof = ClassProfile(scale, {(0, 0): 100, (1, 0): 100, (2, 0): 100})
    at_cutoff = int((LARGE_DEVIATION_CUTOFF + 1.0) * 100 * 100 / n)  # 73 -> gap 6.3
    pat = Pattern(base, prof, {((0, 0), (1, 0)): at_cutoff,
                               ((0, 0), (2, 0)): 100})
    table = DeviationTable(pat)
    low = slot(table.graph, (0, 0), (1, 0))
    high = slot(table.graph, (0, 0), (2, 0))
    assert table.gap[low] <= LARGE_DEVIATION_CUTOFF and table.small[low] and not table.large[low]
    assert table.gap[high] > LARGE_DEVIATION_CUTOFF and table.large[high] and not table.small[high]


@pytest.mark.parametrize("n", [2 ** 61, 2 ** 62, 2 ** 63, 10 ** 21, 10 ** 30],
                         ids=["2^61", "2^62", "2^63", "1e21", "1e30"])
def test_the_table_holds_its_gaps_for_any_fibre_size(n):
    # int64 products once turned the link's gap n/4 - 1 negative (2**61) or -1.0
    # (2**62), and from 2**63 potency and reduce_pattern ended in an OverflowError
    pat = Pattern(complete_graph(3), ClassProfile(DyadicScale(n, 3, 2), {(0, 0): 4, (1, 0): 4, (2, 0): 4}),
                  {((0, 0), (1, 0)): 4})
    table = DeviationTable(pat)
    link = slot(table.graph, (0, 0), (1, 0))
    assert table.gap[link] == pytest.approx(n / 4 - 1, rel=1e-15) and table.large[link]
    assert table.large.sum() == 2
    assert potency(pat) == pytest.approx((4 - 48 / n) / (3 * n), rel=1e-12)
    assert reduce_pattern(pat).branch == "large"


def test_deviation_rate_anchors():
    with pytest.raises(DeviationDomainError):
        deviation_rate(-1.5)
    assert deviation_rate(-1.0) == 1.0
    assert deviation_rate(0.0) == 0.0
    cutoff = math.e ** 2 - 1.0
    assert deviation_rate(cutoff) == pytest.approx(math.e ** 2 + 1.0, rel=1e-14)


def test_deviation_rate_lower_bounds_on_grid():
    cutoff = math.e ** 2 - 1.0
    grid = np.concatenate([
        np.linspace(-1.0 + 1e-9, 8.0, 50_000),
        np.geomspace(8.0, 1e4, 50_000),
    ])
    for gap in grid.tolist():
        value = deviation_rate(gap)
        if gap <= cutoff:
            assert value >= gap * gap / 15.0 - 1e-12
        else:
            floor = (1.0 + gap / 2.0) * math.log1p(gap)
            assert value >= floor - 1e-12 * max(1.0, abs(floor))


# --- potency --------------------------------------------------------------------------


def test_full_fibre_pattern_has_zero_potency():
    n = 5
    lift = identity_lift(complete_graph(3), n)
    scale = DyadicScale.of(lift)
    vec = DyadicBandVector(scale, np.zeros((3, n), dtype=np.int64),
                           np.ones((3, n), dtype=bool))
    pat, witnesses = extract_pattern(vec, lift)
    assert dict(pat.profile.counts) == {(0, 0): n, (1, 0): n, (2, 0): n}
    assert all(count == n for count in pat.links.values()) and len(pat.links) == 3
    assert witnesses[(0, 0)] == tuple(range(n))
    assert potency(pat) == 0.0


def test_empty_pattern_everything_trivial():
    base = complete_graph(3)
    pat = Pattern(base, ClassProfile(DyadicScale(5, 3, 2), {}), {})
    assert potency(pat) == 0.0 and peak_potency(pat) == 0.0
    assert all(column.size == 0 for column in _vertex_sums(pat, DeviationTable(pat)))
    for reducer in (reduce_large, reduce_small, reduce_general, reduce_pattern):
        report = reducer(pat, 20.0)
        assert report.kept == () and report.removals == ()
        assert report.budget > 0 and report.potency_after == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_potency_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng)
    expected = abs(math.fsum(ref_terms(pattern).values()))
    assert potency(pattern) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_peak_potency_matches_exhaustive_subsets(seed):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng, base=SMALL_BASES[3])  # cycle: few class edges
    if len(ref_gamma_edges(pattern)) > 16:
        return
    assert peak_potency(pattern) == pytest.approx(
        ref_peak_exhaustive(pattern), rel=1e-12, abs=1e-15)


def test_peak_potency_can_exceed_total_entry_count():
    # three singleton classes of near-maximal weight: each observed count 1
    # sits far above its expectation 1/13, so the positive terms add up to
    # more than the total number of entries
    base = complete_graph(3)
    scale = DyadicScale(13, 3, 2)
    prof = ClassProfile(scale, {(0, 3): 1, (1, 3): 1, (2, 3): 1})
    pat = Pattern(base, prof, {((0, 3), (1, 3)): 1,
                               ((0, 3), (2, 3)): 1,
                               ((1, 3), (2, 3)): 1})
    expected = 3 * (64 / 39) * (12 / 13)
    assert peak_potency(pat) == pytest.approx(expected, rel=1e-12)
    assert peak_potency(pat) > pat.profile.total


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_peak_potency_structural_bounds(seed):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng)
    counts = pattern.profile.counts
    cap = 0.0
    degree = {}
    for (u, v) in ref_gamma_edges(pattern):
        wu, wv = ref_weight(u[1], pattern.scale), ref_weight(v[1], pattern.scale)
        cap += wu * wv * min(counts[u], counts[v])
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    peak = peak_potency(pattern)
    assert peak <= cap + 1e-12
    if degree:
        assert peak <= 5.0 * max(degree.values()) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_potency_matches_restricted_quadratic_form(seed):
    rng = np.random.default_rng(seed)
    base = SMALL_BASES[int(rng.integers(len(SMALL_BASES)))]
    n = int(rng.integers(2, 8))
    lift = random_lift(base, n, rng)
    vec = random_band_vector(DyadicScale.of(lift), rng)
    pat, _ = extract_pattern(vec, lift)
    form = quad_form_restricted(lift, "centered", vec.vector, vec.vector,
                                "comparable")
    assert abs(form) == pytest.approx(2.0 * potency(pat), rel=1e-9, abs=1e-12)


# --- extraction -----------------------------------------------------------------------


def test_extract_zero_vector():
    lift = identity_lift(complete_graph(4), 3)
    vec = DyadicBandVector.zero(DyadicScale.of(lift))
    pat, witnesses = extract_pattern(vec, lift)
    assert not pat.profile.counts and not pat.links and witnesses == {}


def test_extract_singletons_on_identity_lift():
    lift = identity_lift(complete_graph(4), 6)
    scale = DyadicScale.of(lift)
    exps = np.zeros((4, 6), dtype=np.int64)
    mask = np.zeros((4, 6), dtype=bool)
    mask[:, 0] = True  # position zero of every fibre
    pat, witnesses = extract_pattern(DyadicBandVector(scale, exps, mask), lift)
    assert dict(pat.profile.counts) == {(i, 0): 1 for i in range(4)}
    assert len(pat.links) == 6 and all(v == 1 for v in pat.links.values())
    assert witnesses == {(i, 0): (0,) for i in range(4)}


def test_extract_input_validation():
    lift = identity_lift(complete_graph(3), 4)
    with pytest.raises(NotBandVectorError):
        extract_pattern(np.zeros((3, 4)), lift)
    other = DyadicBandVector.zero(DyadicScale(5, 3, 2))
    with pytest.raises(DimensionMismatchError):
        extract_pattern(other, lift)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_extract_census_consistency(seed):
    rng = np.random.default_rng(seed)
    base = SMALL_BASES[int(rng.integers(len(SMALL_BASES)))]
    n = int(rng.integers(2, 8))
    lift = random_lift(base, n, rng)
    vec = random_band_vector(DyadicScale.of(lift), rng)
    pat, witnesses = extract_pattern(vec, lift)
    # witnesses tile the support and agree with the class sizes
    for (fibre, exp), members in witnesses.items():
        assert pat.profile.counts[(fibre, exp)] == len(members)
        for j in members:
            assert vec.nonzero[fibre, j] and vec.exponents[fibre, j] == exp
    assert sum(len(m) for m in witnesses.values()) == int(vec.nonzero.sum())
    # matched-pair counts, recounted per base edge by brute force
    recount = {}
    for (u, v), perm in lift.perms.items():
        for j in range(n):
            jp = int(perm[j])
            if vec.nonzero[u, j] and vec.nonzero[v, jp]:
                key = tuple(sorted([(u, int(vec.exponents[u, j])),
                                    (v, int(vec.exponents[v, jp]))]))
                recount[key] = recount.get(key, 0) + 1
    assert recount == dict(pat.links)


def pair_loop_pattern(vec, lift):
    """The census with its links counted pair by pair into a Counter."""
    links = Counter()
    for (u, v), perm in lift.perms.items():
        for j in range(lift.n):
            jp = int(perm[j])
            if vec.nonzero[u, j] and vec.nonzero[v, jp]:
                links[(u, int(vec.exponents[u, j])), (v, int(vec.exponents[v, jp]))] += 1
    return Pattern(lift.base, ClassProfile(vec.scale, vec.histogram()), dict(links))


@pytest.mark.parametrize("name", ["k4", "c6", "petersen"])
def test_extract_counts_links_as_the_pair_loop(name):
    rng = np.random.default_rng(len(name))
    for n in (1, 3, 40, 150):
        lift = sample_lift(base_from_name(name), n, SeededRng(n))
        for density in (0.0, 0.1, 0.5):
            vec = random_band_vector(DyadicScale.of(lift), rng, density)
            pattern, loop = extract_pattern(vec, lift)[0], pair_loop_pattern(vec, lift)
            assert list(pattern.links.items()) == list(loop.links.items())
            assert pattern.link_ends.tobytes() == loop.link_ends.tobytes()
            assert pattern.link_counts.tobytes() == loop.link_counts.tobytes()
            assert pattern == loop


# --- per-vertex sums --------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_aggregates_match_reference(seed):
    """The reduction's per-vertex sums (``_vertex_sums``, and ``_row_sums`` of
    the terms by regime) against loops over class pairs."""
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng)
    table = DeviationTable(pattern)
    vertices = table.graph.vertices
    assert vertices == tuple(pattern.profile.counts)
    local = {regimes: np.abs(_row_sums(table.term, mask)).tolist() for regimes, mask in (
        (("large",), table.large), (("small",), table.small),
        (("large", "small"), table.graph.valid))}
    for i, (vertex, mass, tilted_mass, room, room_log) in enumerate(zip(
            vertices, *(column.tolist() for column in _vertex_sums(pattern, table)))):
        nb, tilted, headroom = ref_aggregate(pattern, vertex)
        assert mass == pytest.approx(nb, rel=1e-12, abs=1e-15)
        assert tilted_mass == pytest.approx(tilted, rel=1e-12, abs=1e-15)
        assert room == pytest.approx(headroom, rel=1e-12)
        assert room_log == pytest.approx(math.log(headroom) / headroom, rel=1e-12)
        for regimes, values in local.items():
            ref = ref_local_potency(pattern, set(vertices), vertex, regimes)
            assert values[i] == pytest.approx(ref, rel=1e-9, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([0, 961]))
def test_neighbour_mass_is_the_fsum_of_the_neighbour_fibres(seed, shift):
    """Each class's neighbour mass, bit for bit: math.fsum of the masses of its
    fibre's base neighbours, each fibre's mass added from 0.0 in class order.
    From 2^960 up (``shift``) the masses take fsum's own path."""
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng, base=complete_graph(int(rng.integers(2, 30))) if seed % 2 else None)
    table = DeviationTable(pattern)
    table.square = table.square * 2.0 ** shift
    g = table.graph
    fibre_mass = [0.0] * pattern.base.h
    for i, fibre in enumerate(g.fibre.tolist()):
        fibre_mass[fibre] += float(table.square[i] * table.count[i])
    near = [[v for e in pattern.base.edges if u in e for v in e if v != u]
            for u in range(pattern.base.h)]
    with np.errstate(over="ignore", invalid="ignore"):
        mass = _vertex_sums(pattern, table)[0]
    want = [math.fsum(fibre_mass[v] for v in near[fibre]) for fibre in g.fibre.tolist()]
    assert [x.hex() for x in mass.tolist()] == [x.hex() for x in want]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_headroom_bounds(seed):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng)
    _, _, headroom, headroom_log = _vertex_sums(pattern, DeviationTable(pattern))
    assert (headroom >= math.e).all()
    assert (headroom_log <= 1.18 * headroom ** (-2.0 / 3.0)).all()


# --- reductions -----------------------------------------------------------------------


def big_uniform_pattern(h, n, per_class, link):
    base = complete_graph(h)
    scale = DyadicScale(n, h, h - 1)
    prof = ClassProfile(scale, {(i, 0): per_class for i in range(h)})
    links = {((i, 0), (j, 0)): link for i in range(h) for j in range(i + 1, h)}
    return Pattern(base, prof, links)


@pytest.fixture(scope="module")
def large_regime_pattern():
    # singleton classes on a simplex base: every observed pair count 1 sits
    # 1000x above its expectation, so all deviations are in the large regime
    return big_uniform_pattern(h=452, n=1000, per_class=1, link=1)


@pytest.fixture(scope="module")
def small_regime_pattern():
    # chosen so the relative gap 6.389 lands just below the regime cutoff
    # while the local potency still clears all three small-regime conditions
    return big_uniform_pattern(h=600, n=7389, per_class=1000, link=1000)


def test_reduce_keeps_everything_in_large_regime(large_regime_pattern):
    pat = large_regime_pattern
    report = reduce_pattern(pat, 20.0)
    assert report.branch == "large"
    assert report.removals == ()
    assert len(report.kept) == 452
    assert report.potency_after == report.potency_before
    assert report.retention_floor == report.potency_before
    assert report.budget == pytest.approx(30 * 20 * math.sqrt(451))
    table = DeviationTable(pat)
    valid = table.graph.valid
    assert valid.sum() == 452 * 451 and table.large[valid].all() and not table.small.any()


def test_reduce_keeps_everything_in_small_regime(small_regime_pattern):
    pat = small_regime_pattern
    table = DeviationTable(pat)
    valid = table.graph.valid
    assert valid.sum() == 600 * 599 and table.small[valid].all() and not table.large.any()
    gap = float(table.gap[table.graph.upper][0])
    assert gap == pytest.approx(6.389) and gap < LARGE_DEVIATION_CUTOFF
    report = reduce_pattern(pat, 20.0)
    assert report.branch == "small"
    assert report.removals == () and len(report.kept) == 600
    assert report.budget == pytest.approx(55 * 20 * math.sqrt(599))


def test_reduce_transcripts_verify_large(large_regime_pattern):
    report = reduce_large(large_regime_pattern, 20.0)
    # spot-check survivor conditions on a few vertices with the reference
    pat = large_regime_pattern
    members = set(report.kept)
    for vertex in [(0, 0), (17, 0), (451, 0)]:
        lp = ref_local_potency(pat, members, vertex, ("large",))
        for t in ref_thresholds(pat, vertex, 20.0, "large"):
            assert lp >= t
    assert report.removed_potency == 0.0


def test_reduce_budget_and_retention_random():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        pattern = random_pattern(rng)
        for branch, reducer in [("large", reduce_large), ("small", reduce_small),
                                ("general", reduce_general)]:
            report = reducer(pattern, 20.0)
            ref_verify_reduction(pattern, report, 20.0, branch)


def test_reduce_is_deterministic():
    rng = np.random.default_rng(99)
    for _ in range(10):
        pattern = random_pattern(rng)
        first = reduce_general(pattern, 20.0)
        second = reduce_general(pattern, 20.0)
        assert first == second


def test_reduce_rejects_low_level():
    pat = Pattern(complete_graph(3), ClassProfile(DyadicScale(5, 3, 2), {}), {})
    for level in (19.0, math.nan, math.inf):
        for reducer in (reduce_large, reduce_small, reduce_general, reduce_pattern):
            with pytest.raises(ConfigError):
                reducer(pat, level)


@pytest.mark.parametrize("level", ["30", None, True, 10 ** 400], ids=["string", "none", "bool",
                                                                      "int-beyond-float"])
def test_reduce_refuses_a_level_that_is_not_a_finite_number(level):
    pat = Pattern(complete_graph(3), ClassProfile(DyadicScale(5, 3, 2), {}), {})
    for reducer in (reduce_large, reduce_small, reduce_general, reduce_pattern):
        with pytest.raises(ConfigError, match="level"):
            reducer(pat, level=level)


def test_reduce_dispatch_picks_dominant_regime():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(40):
        pattern = random_pattern(rng)
        terms = ref_terms(pattern)
        if not terms:
            continue
        n = pattern.scale.n
        counts = pattern.profile.counts
        heavy = 0.0
        total = 0.0
        for (u, v), term in terms.items():
            total += term
            gap = pattern.links.get((u, v), 0) * n / (counts[u] * counts[v]) - 1.0
            if gap > LARGE_DEVIATION_CUTOFF:
                heavy += term
        expect = "large" if abs(heavy) >= abs(total) / 2.0 else "small"
        report = reduce_pattern(pattern, 20.0)
        assert report.branch == expect
        seen.add(expect)
    assert seen == {"large", "small"}


def test_desk_scale_patterns_empty_out():
    # at small degree the weight-share condition already dwarfs any local
    # potency, so the survivor set is empty
    rng = np.random.default_rng(11)
    pattern = random_pattern(rng, base=complete_graph(4), n=20)
    report = reduce_pattern(pattern, 20.0)
    assert report.kept == ()


# sha256 of reduction_to_text, recorded before the reductions shared one class
# graph and deviation table per call; transcripts must not move by one byte.
PINNED_RANDOM = [
    ("1f1b3da3490251de979955590c0834d634eae0f59aeb7858e8d3a207603a0ff4",
     "f90864b693fee802983c97ef6ef22106632846041629287c7074a7707382ca64"),
    ("5958ef6b5d7de52ea9c88b7d2cac7b7557fe1a04c2f9519910ee47aa556cd7db",
     "7f818f315517d249e0c1628350f30ca959ccb6eb7f60e8df01d71f7953ba4c58"),
    ("4f65d422f47aa98489355a904cc29ec237482d98f217f17eb5ba9b4ba236056f",
     "3f2125dfa71b5ffd9649bd57afcf2706ee88d0893364e2e23bfb52478437fbad"),
    ("e2b34e50c59cb13def59f8e468b018f62ddc4ee47853e12940be0bfddd91cc4c",
     "bba0c260abae8103d30b025724f6ba31b35122999507827b82bf1c346b2e9695"),
    ("42c71770c219edc3f8f134a0a8f07d12ae926101276731caa7ae26b012c9ff02",
     "af565169a8522aebbb91359b6f5504d38b40b31232e87c6ba7ca735c81c6ec91"),
    ("1e4d5b5640bed3d79d3f25fbaec0df030a9b15961095990b6a2a2eea214a2250",
     "962d651f331f5e2aaf43c4e33ddda39d26298c5bed079b5c2a0d4eac13e7d71c"),
    ("e09ed50e6291f807475648f9cf70b4cb0388d45d81a8f84448f080afbd9f4491",
     "db200f75a3ed2f781ad77463ecaa8418857a93176375da22034f98739019763f"),
    ("e3d4c3e977e4083bcddc990e2497820dc34f458b9560a210c71fc5d089192a9d",
     "82955040074197324a9e64b60704aff0a9f822271e3496d03362fb62db6e99f1"),
    ("5584036517468a18b7089de25f7194a9f3bdd23f6172e0ba1a6c0f763eb09fa2",
     "fd6b536114635b49b9158e497c800487d0fded0c87a0f18ed0c0456378e3d7f4"),
    ("26ec8eea7868af38ff720c96f984ed771da022d97bf1ea14624c4e9b5536f15e",
     "7fcda7ab0a6b3841296871065e2503221a26ad9d1a95e45cb3c8ae8fbd9221ab"),
]
PINNED_SIMPLEX = ("b4d2f315965ede722812e91078642e562f32b8cef5811cd7019bada2f3fe9568",
                  "16ba74acbaeb30c50930d8cde8f98eb2aaf4926c962ae813f06adb2a55a1609f")
PINNED_SIMPLEX_PLUS_STRAYS = "36a2fb835d050dbe2a94f8f81d09699cd6815610dc7a46cc1fe21e5139967493"
# recorded while the deviation table still held one object per edge
PINNED_PAIRWISE = ("a23b496221ff1f3eb71b8c0577a2990d38a310ae9767a510b346ed9b5af9fc59",
                   "28b3679da0e6e5c42bd763187a0b4167c07b6deb6d7fe9b4e6c4c77af65255c6")


def transcript_digest(report):
    return hashlib.sha256(reduction_to_text(report).encode()).hexdigest()


def test_reduction_transcripts_pinned_on_random_patterns():
    # on K_8..K_17 every class has several neighbours, so the local sums, and
    # the potencies the transcripts print, depend on the summation order
    rng = np.random.default_rng(2010)
    digests = []
    for k in range(len(PINNED_RANDOM)):
        pattern = random_pattern(rng, base=complete_graph(8 + k), n=100 + 50 * k)
        report = reduce_pattern(pattern)
        assert report.removals
        digests.append((transcript_digest(report),
                        transcript_digest(reduce_general(pattern, level=41.0))))
    assert digests == PINNED_RANDOM


def test_reduction_transcripts_pinned_on_the_simplex(large_regime_pattern):
    pat = large_regime_pattern
    assert (transcript_digest(reduce_pattern(pat)),
            transcript_digest(reduce_general(pat, level=41.0))) == PINNED_SIMPLEX
    # ten unlinked exponent-1 strays: reduce_pattern removes exactly those and
    # keeps the simplex, so the guarantee checks run on a proper kept subset
    counts = dict(pat.profile.counts)
    counts.update({(i, 1): 1 for i in range(0, 40, 4)})
    strays = Pattern(pat.base, ClassProfile(pat.scale, counts), dict(pat.links))
    report = reduce_pattern(strays)
    assert {r.vertex for r in report.removals} == {(i, 1) for i in range(0, 40, 4)}
    assert report.kept == pat.profile.vertices
    assert transcript_digest(report) == PINNED_SIMPLEX_PLUS_STRAYS


def test_reduction_transcripts_pinned_where_pairwise_sums_differ():
    # on this K_9 pattern np.sum of a vertex's terms differs from their
    # left-to-right sum at four classes, and the transcripts print such sums
    pattern = random_pattern(np.random.default_rng([7, 2]), base=complete_graph(9), n=150)
    table = DeviationTable(pattern)
    differs = 0
    for i in range(len(table.graph.vertices)):
        terms = table.term[i, table.graph.valid[i]].tolist()
        in_order = 0.0
        for term in terms:
            in_order += term
        differs += float(np.sum(terms)) != in_order
    assert differs == 4
    assert (transcript_digest(reduce_pattern(pattern)),
            transcript_digest(reduce_general(pattern, level=41.0))) == PINNED_PAIRWISE


def lazy_greedy_reduce(pattern, level, branch):
    """The greedy scan as it ran before it dropped classes in batches: one
    turn drops the first violator, or re-sums the first stale vertex."""
    table = DeviationTable(pattern)
    g = table.graph
    labels, floors = _branch_floors(table, _vertex_sums(pattern, table), level,
                                    pattern.scale, branch)
    regime = {"large": table.large, "small": table.small}.get(branch, g.valid)
    alive = np.ones(len(g.vertices), dtype=bool)
    local = np.abs(_row_sums(table.term, regime))
    violating = (local[:, None] < floors).any(axis=1)
    stale = np.zeros_like(alive)
    removals = []
    while (pending := violating | stale).any():
        vertex = int(np.argmax(pending))
        row = g.nbr[vertex]
        if stale[vertex]:
            local[vertex] = abs(_row_sums(table.term[vertex], regime[vertex] & alive[row]))
            violating[vertex] = (local[vertex] < floors[vertex]).any()
            stale[vertex] = False
            continue
        label = labels[int(np.argmax(local[vertex] < floors[vertex]))]
        removals.append(Removal(g.vertices[vertex], label, float(local[vertex])))
        alive[vertex] = violating[vertex] = False
        stale[row[regime[vertex] & alive[row]]] = True
    return ReductionReport(
        branch=branch,
        kept=tuple(v for v, keep in zip(g.vertices, alive.tolist()) if keep),
        removals=tuple(removals),
        removed_potency=math.fsum(r.local_potency for r in removals),
        budget=_BUDGET_FACTOR[branch] * level * math.sqrt(pattern.scale.d),
        potency_before=_members_potency(table, np.ones_like(alive), regime),
        potency_after=_members_potency(table, alive, regime))


def assert_scans_agree(pattern, levels=(20.0, 41.0)):
    for branch in ("large", "small", "general"):
        for level in levels:
            assert (reduction_to_text(_greedy_reduce(pattern, level, branch))
                    == reduction_to_text(lazy_greedy_reduce(pattern, level, branch)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_batched_scan_equals_the_lazy_scan(seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        pattern = random_pattern(rng)
    else:
        pattern = random_pattern(rng, base=complete_graph(int(rng.integers(6, 30))),
                                 n=int(rng.integers(20, 800)))
    assert_scans_agree(pattern)


SIMPLEX_BASE = complete_graph(452)


def simplex_with_strays(strays, cut):
    """The K_452 simplex pattern (every class (i, 0) holds one entry, every
    pair linked once) plus one-entry exponent-1 strays, each linked to the
    simplex classes it maps to, and without the simplex links in ``cut``.

    At level 20 a simplex class survives the large branch while its large
    local sum, 0.999 w**2 per simplex neighbour and 1.998 w**2 per stray,
    stays at or above 20 sqrt(451) w**2 = 424.7 w**2; a stray never does.
    """
    h, n = 452, 1000
    counts = {(i, 0): 1 for i in range(h)}
    counts.update(dict.fromkeys(strays, 1))
    links = {((i, 0), (j, 0)): 1 for i in range(h) for j in range(i + 1, h)}
    for pair in cut:
        del links[pair]
    for stray, targets in strays.items():
        links.update({(stray, target): 1 for target in targets})
    return Pattern(SIMPLEX_BASE, ClassProfile(DyadicScale(n, h, h - 1), counts), links)


def test_batched_scan_waits_for_a_vertex_a_drop_stales_below_the_next():
    # (5, 0) keeps 425 simplex links, 424.6 w**2, and clears the floor only
    # with the stray (6, 1).  The strays below it grow the window to four, so
    # (6, 1) and (7, 1) are summed in one round; dropping (6, 1) stales the
    # settled (5, 0), which then violates and goes before (7, 1)
    pattern = simplex_with_strays(
        {(0, 1): (), (1, 1): (), (2, 1): (), (6, 1): ((5, 0),), (7, 1): ()},
        [((5, 0), (j, 0)) for j in range(400, 426)])
    report = reduce_large(pattern)
    assert [r.vertex for r in report.removals] == [(0, 1), (1, 1), (2, 1), (6, 1), (5, 0), (7, 1)]
    assert_scans_agree(pattern, levels=(20.0,))


def test_batched_scan_sums_each_vertex_without_the_pending_ones_below_it():
    # (30, 0) keeps 420 simplex links and eight strays; it violates once six
    # are gone, so it goes in the round that drops (3, 1), (4, 1) and (5, 1),
    # summed without them.  (35, 0) is stale when the round that drops
    # (32, 1) reaches it, and settles with the sum that (32, 1)'s drop leaves
    q1, q2 = (35, 0), (30, 0)
    pattern = simplex_with_strays(
        {**{(i, 1): (q1, q2) for i in range(6)}, (32, 1): (q1,),
         (40, 1): (q1, q2), (41, 1): (q1, q2)},
        [(q2, (j, 0)) for j in range(400, 431)])
    report = reduce_large(pattern)
    assert [r.vertex for r in report.removals] == [
        (0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), q2, (32, 1), (40, 1), (41, 1)]
    assert q1 in report.kept
    assert_scans_agree(pattern, levels=(20.0,))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_census_transcripts_keep_their_recorded_digests(monkeypatch):
    # every pattern the benchmark's census can draw, reduced as its items
    # reduce them; the benchmark's reference digests are read, never written
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    reference = checks.load_reference()["outputs"]
    instances = workloads.instances("reduce-census")
    assert len(instances) == 17
    for spec, index in instances:
        pattern = workloads.census_pattern(liftlab, spec, index)
        recorded = reference[workloads.census_key(spec, index)]
        assert (transcript_digest(reduce_pattern(pattern)),
                transcript_digest(reduce_general(pattern, level=workloads.CENSUS_LEVEL))) == (
            recorded["reduce_pattern"], recorded["reduce_general"])


def test_reductions_that_remove_nothing_report_a_recounted_potency_after(large_regime_pattern):
    # the large branch keeps every simplex class, so potency_after is not summed
    # again; it must still be the fsum of the branch's terms over the kept set.
    # Without the link (0, 0)-(1, 0), one edge sits in the small regime.
    simplex = large_regime_pattern
    cut = Pattern(simplex.base, simplex.profile,
                  {pair: c for pair, c in simplex.links.items() if pair != ((0, 0), (1, 0))})
    for pattern in (simplex, cut):
        counts, n, terms = pattern.profile.counts, pattern.scale.n, ref_terms(pattern)
        large = [term for (u, v), term in terms.items()
                 if pattern.links.get((u, v), 0) * n / (counts[u] * counts[v]) - 1.0
                 > LARGE_DEVIATION_CUTOFF]
        assert len(large) == len(terms) - (pattern is cut)
        for report in (reduce_pattern(pattern), reduce_large(pattern)):
            assert report.removals == () and len(report.kept) == 452
            assert report.potency_after == abs(math.fsum(large)) > 0.0


def fsum_or_error(call):
    try:
        return call()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def same_sums(got, want):
    """Equal floats by float.hex (so -0.0 differs from 0.0, NaN equals NaN), or the same error."""
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    return [float(x).hex() for x in np.atleast_1d(got)] == [
        float(x).hex() for x in np.atleast_1d(want)]


FSUM_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.0 ** -1000, max_value=2.0 ** -1000),  # subnormals included
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1023)),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(950, 1023)),
    st.sampled_from([0.0, -0.0, 2.0 ** -1074, -2.0 ** -1074, 1.0, 2.0 ** 53, -(2.0 ** 53), 0.1]),
)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_fsums_equals_math_fsum(data):
    finite = data.draw(st.booleans())
    values = data.draw(st.lists(FSUM_VALUES if finite else FSUM_VALUES | st.sampled_from(
        [math.inf, -math.inf, math.nan]), max_size=60))
    nrows = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.integers(0, nrows - 1), min_size=len(values),
                              max_size=len(values)))
    array = np.array(values, dtype=float)
    assert same_sums(fsum_or_error(lambda: _fsums(array)),
                     fsum_or_error(lambda: math.fsum(values)))
    # the row sums raise what the first row that raises raises
    want = fsum_or_error(lambda: [math.fsum(v for v, r in zip(values, rows) if r == k)
                                  for k in range(nrows)])
    got = fsum_or_error(lambda: _fsums(array, np.array(rows, np.int64), nrows))
    assert same_sums(got, want)
    assert isinstance(_fsums(array[:0]), float) and _fsums(array[:0]) == 0.0


def test_fsums_near_the_float_limits():
    # signed zeros, subnormals, sums that overflow in one order only, the fallback
    # cut at 2^960, non-finite values, and ties broken by a far-off partial
    cases = [[], [-0.0], [-0.0, -0.0], [2.0 ** -1074] * 3 + [-(2.0 ** -1073)],
             [1e308, 1e308, -1e308], [1e308, -1e308, 1e308],
             [2.0 ** 1000, 2.0 ** -1000, -(2.0 ** 1000)], [2.0 ** 959.5, 2.0 ** 959.5],
             [2.0 ** 960, -(2.0 ** 960), 1.0], [math.inf, -math.inf], [math.inf, 1.0],
             [math.nan, 1.0], [0.1] * 10, [1.0, 2.0 ** -53, 2.0 ** -106]]
    for values in cases:
        assert same_sums(fsum_or_error(lambda: _fsums(np.array(values, dtype=float))),
                         fsum_or_error(lambda: math.fsum(values))), values


def test_kept_rows_peak_equals_peak_of_the_restricted_pattern():
    rng = np.random.default_rng(4242)
    for k in range(60):
        h = int(rng.integers(6, 14))
        base = SMALL_BASES[k % len(SMALL_BASES)] if k % 2 else complete_graph(h)
        pattern = random_pattern(rng, base=base, n=int(rng.integers(20, 400)))
        table = DeviationTable(pattern)
        g = table.graph
        verts = list(pattern.profile.counts)
        for kept in (set(verts), set(), {v for v in verts if rng.random() < 0.5}):
            alive = np.array([v in kept for v in g.vertices], dtype=bool)
            terms = table.term[g.upper & alive[:, None] & alive[g.nbr]].tolist()
            assert _peak(terms) == peak_potency(pattern.restricted(kept))


def test_deviation_table_lists_rows_per_vertex_in_neighbour_order():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pattern = random_pattern(rng, base=complete_graph(9), n=200)
        table = DeviationTable(pattern)
        g = table.graph
        assert class_pairs(g, g.upper) == ref_gamma_edges(pattern)
        for i in range(len(g.vertices)):
            row = g.nbr[i, g.valid[i]]
            assert (np.diff(row) > 0).all() and g.valid[i, :row.size].all()
            for k, j in enumerate(row.tolist()):
                # both ends of an edge hold the same row
                back = slot(g, g.vertices[j], g.vertices[i])
                for field in (table.mu, table.gap, table.large, table.small, table.term):
                    assert field[i, k] == field[back]
        assert not (table.term[~g.valid].any() or table.large[~g.valid].any()
                    or table.small[~g.valid].any())
        assert all(table.weights[e] == pattern.scale.weight(e)
                   for _, e in pattern.profile.counts)


def test_deviation_rows_equal_the_per_edge_deviation():
    rng = np.random.default_rng(12)
    for k in range(40):
        h = int(rng.integers(6, 16))
        base = SMALL_BASES[k % len(SMALL_BASES)] if k % 2 else complete_graph(h)
        pattern = random_pattern(rng, base=base, n=int(rng.integers(4, 500)))
        counts, weight = pattern.profile.counts, pattern.scale.weight
        table = DeviationTable(pattern)
        g = table.graph
        assert class_pairs(g, g.upper) == ref_gamma_edges(pattern)
        for (u, v), mu, gap, large, small, term in zip(
                class_pairs(g, g.valid), *(a[g.valid].tolist() for a in (
                    table.mu, table.gap, table.large, table.small, table.term))):
            edge = (min(u, v), max(u, v))
            row = deviation(edge, counts[u], counts[v], pattern.scale.n,
                            pattern.links.get(edge, 0), weight(u[1]) * weight(v[1]))
            assert (mu, gap, term) == (row.expected, row.relative_gap, row.term)
            assert (large, small) == (row.regime == "large", row.regime == "small")


def ref_validated_links(base, profile, links):
    """The per-link loop that validated a pattern's links before they were
    validated as arrays: the canonical links in sorted order, or its error."""
    counts = profile.counts
    cleaned = {}
    for pair, value in links.items():
        u, v = pair
        count = int(value)
        if count < 0:
            raise InvalidPatternError(f"negative link count at {pair}")
        if count == 0:
            continue
        key = (tuple(u), tuple(v)) if tuple(u) <= tuple(v) else (tuple(v), tuple(u))
        if key in cleaned:
            raise InvalidPatternError(f"duplicate link {pair}")
        a, b = key
        if a not in counts or b not in counts:
            raise InvalidPatternError(f"link {pair} touches an empty class")
        if not base.are_adjacent(a[0], b[0]):
            raise InvalidPatternError(
                f"link {pair} joins fibres that are not adjacent in the base")
        if count > min(counts[a], counts[b]):
            raise InvalidPatternError(
                f"link {pair} exceeds the smaller class size")
        cleaned[key] = count
    return dict(sorted(cleaned.items()))


def validation_outcome(read):
    try:
        return list(read().items())
    except LiftlabError as exc:
        return type(exc), str(exc)


def scrambled_links(pattern, rng):
    """The pattern's links in shuffled order, some keys reversed, with
    zero-count links added, and sometimes one to three malformed entries."""
    counts = pattern.profile.counts
    verts = sorted(counts)
    h = pattern.scale.h
    items = [((v, u), c) if rng.random() < 0.5 else ((u, v), c)
             for (u, v), c in pattern.links.items()]
    for _ in range(int(rng.integers(0, 4))):
        fibre = int(rng.integers(-1, h + 2))
        items.append((((fibre, int(rng.integers(0, 6))), (int(rng.integers(0, h)), 0)), 0))
    huge = 2 ** 70
    for _ in range(int(rng.integers(0, 4)) if rng.random() < 0.7 and verts else 0):
        u, v = (verts[int(rng.integers(len(verts)))] for _ in range(2))
        kind = int(rng.integers(0, 8))
        if kind == 0:
            items.append(((u, v), -int(rng.integers(1, 3))))
        elif kind == 1 and items:
            (a, b), c = items[int(rng.integers(len(items)))]
            items.append(((b, a), c))
        elif kind == 2:
            items.append((((u[0], u[1] + 7), v), 1))
        elif kind == 3:
            items.append((((h + int(rng.integers(0, 3)), u[1]), v), 1))
        elif kind == 4:
            items.append(((u, v), min(counts[u], counts[v]) + 1))
        elif kind == 5:
            items.append(((u, (u[0], v[1])), 1))  # one fibre, never adjacent to itself
        elif kind == 6:
            items.append(((u, v), huge if rng.random() < 0.5 else -huge))
        else:
            items.append((((huge, 0), v) if rng.random() < 0.5 else ((u[0], -huge), v), 1))
    order = rng.permutation(len(items))
    return {items[i][0]: items[i][1] for i in order.tolist()}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_array_validation_matches_the_per_link_loop(seed):
    rng = np.random.default_rng(seed)
    base = (SMALL_BASES[seed % len(SMALL_BASES)] if seed % 3
            else complete_graph(int(rng.integers(3, 12))))
    pattern = random_pattern(rng, base=base)
    for _ in range(4):
        links = scrambled_links(pattern, rng)
        expected = validation_outcome(lambda: ref_validated_links(base, pattern.profile, links))
        assert validation_outcome(lambda: Pattern(base, pattern.profile, links).links) == expected
        if isinstance(expected, list):
            again = Pattern(base, pattern.profile, links)
            assert type(again.links.keys()) is type({}.keys())
            assert all(type(x) is int for key in again.links for end in key for x in end)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_deviation_arrays_from_the_cached_links_equal_the_dict_lookups(seed):
    rng = np.random.default_rng(seed)
    base = (SMALL_BASES[seed % len(SMALL_BASES)] if seed % 2
            else complete_graph(int(rng.integers(3, 14))))
    pattern = random_pattern(rng, base=base)
    table = DeviationTable(pattern)
    g = table.graph
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = np.array([[index[a], index[b]] for a, b in pattern.links], np.int64).reshape(-1, 2)
    assert pattern.link_ends.tobytes() == ends.tobytes()
    counts = np.array(list(pattern.links.values()), np.int64)
    assert pattern.link_counts.tobytes() == counts.tobytes()
    assert not (pattern.link_ends.flags.writeable or pattern.link_counts.flags.writeable)
    # the table as it was built when every link looked up its two ends by key
    observed = np.zeros(g.nbr.shape, np.int64)
    for (a, b), count in pattern.links.items():
        for x, y in ((a, b), (b, a)):
            i, j = index[x], index[y]
            observed[i, g.valid[i] & (g.nbr[i] == j)] = count
    products = table.count[:, None] * table.count[g.nbr]
    mu = products / pattern.scale.n
    gap = observed * pattern.scale.n / products - 1.0
    large = g.valid & (gap > LARGE_DEVIATION_CUTOFF)
    term = np.where(g.valid, table.weight[:, None] * table.weight[g.nbr] * (observed - mu), 0.0)
    for mine, theirs in ((table.mu, mu), (table.gap, gap), (table.large, large),
                         (table.small, g.valid & ~large), (table.term, term)):
        assert mine.tobytes() == theirs.tobytes()


# --- counting bounds --------------------------------------------------------------------


def test_count_bound_example_and_monotonicity():
    bound = pattern_count_bound(8, 3, 2, 2)
    assert math.exp(bound) == pytest.approx(math.log2(24) * 2 ** 12, rel=1e-12)
    assert pattern_count_bound(8, 3, 2, 3) > bound
    assert pattern_count_bound(8, 3, 2, 1) == pytest.approx(math.log(math.log2(24)))
    with pytest.raises(ConfigError):
        pattern_count_bound(8, 3, 2, 0)
    with pytest.raises(ConfigError):
        pattern_count_bound(1, 1, 1, 2)


def ref_enumerate_tiny(n, h, d, max_count, base):
    """Independent pattern count: scan all size assignments over a global
    exponent window, filter the census invariants, then count link choices."""
    cap = 10 * n * h
    emax = 0
    while 4 ** (emax + 1) <= cap:
        emax += 1
    slots = [(i, e) for i in range(h) for e in range(emax + 1)]
    total = 0
    seen = set()
    for sizes in itertools.product(range(min(max_count - 1, n) + 1),
                                   repeat=len(slots)):
        counts = {s: c for s, c in zip(slots, sizes) if c}
        if sum(c * 4 ** e for (_, e), c in counts.items()) > cap:
            continue
        live_exps = [e for (_, e) in counts]
        if live_exps and 2 ** (max(live_exps) - min(live_exps)) > d:
            continue
        if any(sum(c for (i, _), c in counts.items() if i == f) > n
               for f in range(h)):
            continue
        pairs = [
            (u, v) for u, v in itertools.combinations(sorted(counts), 2)
            if base.are_adjacent(u[0], v[0]) and 4 ** abs(u[1] - v[1]) < d]
        for values in itertools.product(
                *(range(min(counts[u], counts[v]) + 1) for u, v in pairs)):
            key = (tuple(sorted(counts.items())),
                   tuple(sorted((p, x) for p, x in zip(pairs, values) if x)))
            seen.add(key)
    return len(seen)


def test_enumerate_patterns_examples():
    assert enumerate_patterns(8, 3, 2, 1) == 1  # only the empty pattern
    count = enumerate_patterns(8, 3, 2, 2)
    assert count == ref_enumerate_tiny(8, 3, 2, 2, cycle_graph(3))
    assert math.log(count) <= pattern_count_bound(8, 3, 2, 2)


def test_enumerate_patterns_guards_and_defaults():
    with pytest.raises(ConfigError):
        enumerate_patterns(8, 3, 2, 0)
    with pytest.raises(ConfigError):
        enumerate_patterns(8, 5, 3, 2)  # no default base for (h=5, d=3)
    with pytest.raises(DimensionMismatchError):
        enumerate_patterns(8, 3, 2, 2, base=complete_graph(4))
    with pytest.raises(TooLargeError):
        enumerate_patterns(64, 3, 2, 64)


@pytest.mark.parametrize("max_count", [2.5, True, 0, "2"])
def test_count_bound_and_enumeration_read_max_count_as_an_integer(max_count):
    with pytest.raises(ConfigError, match="max_count"):
        pattern_count_bound(4, 3, 2, max_count)
    with pytest.raises(ConfigError, match="max_count"):
        enumerate_patterns(4, 3, 2, max_count)


@pytest.mark.parametrize("n, h, d", [(10, 4, 0), (2.5, 4, 3), (True, 4, 3), (10, 4.0, 3),
                                     (10, 4, -1), (10, False, 3)],
                         ids=["d-zero", "n-half", "n-bool", "h-float", "d-negative", "h-bool"])
def test_count_bound_reads_its_dimensions_as_the_scale_does(n, h, d):
    with pytest.raises(LiftlabError, match="n, h and d must be integers"):
        pattern_count_bound(n, h, d, 3)


def test_enumerate_patterns_with_explicit_base():
    explicit = enumerate_patterns(8, 3, 2, 2, base=cycle_graph(3))
    assert explicit == enumerate_patterns(8, 3, 2, 2)


def test_enumerate_patterns_defaults_to_the_cycle_when_d_is_two():
    # h = 4, d = 2 is no complete graph: the default base is C_4
    explicit = enumerate_patterns(8, 4, 2, 2, base=cycle_graph(4))
    assert explicit == enumerate_patterns(8, 4, 2, 2)


# --- text formats ------------------------------------------------------------------------


def test_pattern_text_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        pattern = random_pattern(rng)
        text = pattern_to_text(pattern)
        back = pattern_from_text(text, pattern.base)
        assert back == pattern


def test_pattern_text_errors():
    base = complete_graph(3)
    with pytest.raises(LiftlabError):
        pattern_from_text("not-a-pattern\n", base)
    with pytest.raises(LiftlabError):
        pattern_from_text("lift-pattern\nn 5\nh 3\n", base)  # missing d
    with pytest.raises(LiftlabError):
        pattern_from_text("lift-pattern\nn 5\nh 3\nd 2\nfrob 1\n", base)
    bad_band = "lift-pattern\nn 5\nh 3\nd 2\nband 3\nclass 0 1 2\n"
    with pytest.raises(InvalidPatternError):
        pattern_from_text(bad_band, base)
    for line in ("class 0 x 2", "link 0 0 1 0 1.5", "n five", "class 0 1", "link 0 0 1 0",
                 "class 0 1 2 3", "d"):
        with pytest.raises(InvalidPatternError):
            pattern_from_text(f"lift-pattern\nn 5\nh 3\nd 2\n{line}\n", base)


def test_reduction_transcript_format():
    rng = np.random.default_rng(31)
    pattern = random_pattern(rng)
    report = reduce_general(pattern, 20.0)
    text = reduction_to_text(report)
    lines = text.strip().splitlines()
    assert lines[0] == "reduction"
    assert lines[1] == "branch general"
    assert sum(1 for ln in lines if ln.startswith("remove ")) == len(report.removals)
    assert sum(1 for ln in lines if ln.startswith("keep ")) == len(report.kept)
    assert f"removed {len(report.removals)}" in text
    assert f"kept {len(report.kept)}" in text
