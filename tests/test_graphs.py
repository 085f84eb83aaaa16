import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from liftlab.errors import (
    ConfigError,
    DenseGuardError,
    DimensionMismatchError,
    DuplicateEdgeError,
    LiftlabError,
    NonRegularError,
    SelfLoopError,
)
from liftlab.graphs import (
    BaseGraph,
    Lift,
    LiftVector,
    apply_adjacency,
    apply_centered,
    apply_expected,
    balance,
    base_from_name,
    base_from_text,
    complete_graph,
    cycle_graph,
    cycle_power_graph,
    dense_operator,
    identity_lift,
    induced_adjacency,
    lifted_eigenvector,
    petersen_graph,
    _adjacency_raw,
    _centered_raw,
    _expected_raw,
    apply_operator,
)
from liftlab.dyadic import quad_form, quad_form_restricted
from liftlab.spectra import dense_spectrum

from _support import (base_to_text, is_balanced, lift_with_vector, neighbours, peak_mb,
                      oracle_adjacency, oracle_centered, oracle_expected, oracle_induced,
                      random_lift)


# --- base graph construction -------------------------------------------------


def test_triangle_is_2_regular():
    g = complete_graph(3)
    assert g.h == 3 and g.d == 2 and len(g.edges) == 3


def test_k4_is_3_regular():
    g = complete_graph(4)
    assert g.d == 3 and len(g.edges) == 6


def test_path_rejected_as_non_regular():
    with pytest.raises(NonRegularError):
        BaseGraph(3, ((0, 1), (1, 2)))


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        BaseGraph(2, ((0, 0),))


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        BaseGraph(2, ((0, 1), (1, 0)))


def test_edge_count_is_hd_over_2():
    for g in [complete_graph(5), cycle_graph(7), petersen_graph(), cycle_power_graph(9, 2)]:
        assert 2 * len(g.edges) == g.h * g.d


def test_petersen_shape():
    g = petersen_graph()
    assert g.h == 10 and g.d == 3 and len(g.edges) == 15


def test_base_from_name():
    assert base_from_name("k5").h == 5
    assert base_from_name("c7").d == 2
    assert base_from_name("c9p2").d == 4
    assert base_from_name("petersen").h == 10
    with pytest.raises(LiftlabError):
        base_from_name("q3")


def test_base_readers_raise_config_errors():
    for name in ("q3", "kx", "k1", "k-2", "c2", "c9p9", "c9p2p1", "", 5, None):
        with pytest.raises(ConfigError):
            base_from_name(name)
    for text in ("", "3\n", "3 x\n", "3 2\n0 1\n", "3 1\n0 0\n", "4 2\n0 1\n1 2\n",
                 "3 3\n0 1\n1 2 0\n0 2\n", "3 3\n0 1\n1\n0 2\n"):
        with pytest.raises(ConfigError):
            base_from_text(text)


def test_base_text_round_trip():
    g = petersen_graph()
    assert base_from_text(base_to_text(g)).edges == g.edges


# --- base graph construction: the edge-by-edge rules, decided on arrays -------

# (h, edges, error type, message) as an edge-by-edge check gives them: the first
# offending edge in input order decides, as a loop, out of range, or a repeat
EDGE_ERRORS = {
    "self-loop": (3, ((0, 1), (1, 1), (0, 2)), SelfLoopError, "edge (1,1) is a loop"),
    "negative-vertex": (3, ((0, 1), (-1, 2), (0, 2)), LiftlabError, "edge (-1,2) out of range for h=3"),
    "vertex-at-h": (3, ((0, 1), (1, 3), (0, 2)), LiftlabError, "edge (1,3) out of range for h=3"),
    "duplicate-reversed": (3, ((0, 1), (1, 0), (0, 2)), DuplicateEdgeError, "edge (0, 1) repeated"),
    "wrong-arity": (3, ((0, 1, 2), (1, 2, 0), (0, 2, 1)), LiftlabError,
                    "edges must be pairs of integer vertices"),
    "ragged": (3, ((0, 1), (1, 2, 0), (0, 2)), LiftlabError, "edges must be pairs of integer vertices"),
    "non-integer": (3, ((0, 1), (1, 2.5), (0, 2)), LiftlabError, "edges must be pairs of integer vertices"),
    "string-vertex": (3, (("a", 1), (1, 2), (0, 2)), LiftlabError, "edges must be pairs of integer vertices"),
    "not-a-pair": (3, (5, (1, 2), (0, 2)), LiftlabError, "edges must be pairs of integer vertices"),
    "beyond-int64": (3, ((0, 2 ** 70), (1, 2), (0, 2)), LiftlabError,
                     f"edge (0,{2 ** 70}) out of range for h=3"),
    "numpy-loop": (3, ((np.int64(2), np.int64(2)), (0, 1), (0, 2)), SelfLoopError, "edge (2,2) is a loop"),
    "non-regular": (4, ((0, 1), (1, 2), (2, 3)), NonRegularError, "degrees [1, 2] differ"),
    "no-vertex": (0, (), LiftlabError, "base graph needs at least one vertex"),
    "too-few-edges": (5, ((0, 1), (1, 2)), NonRegularError, "degree must be at least 1"),
    "loop-then-ragged": (3, ((0, 0), (1, 2, 3)), SelfLoopError, "edge (0,0) is a loop"),
    "ragged-then-loop": (3, ((0, 1, 2), (0, 0)), LiftlabError, "edges must be pairs of integer vertices"),
    "range-then-duplicate": (3, ((0, 1), (0, 5), (1, 0)), LiftlabError, "edge (0,5) out of range for h=3"),
    "duplicate-then-loop": (3, ((0, 1), (1, 0), (2, 2)), DuplicateEdgeError, "edge (0, 1) repeated"),
    "non-integer-then-range": (3, ((0, 1.5), (0, 7)), LiftlabError,
                               "edges must be pairs of integer vertices"),
    "range-then-non-integer": (3, ((0, 7), (0, 1.5)), LiftlabError, "edge (0,7) out of range for h=3"),
    "loop-out-of-range": (3, ((5, 5), (0, 1)), SelfLoopError, "edge (5,5) is a loop"),
    "negative-loop-then-duplicate": (3, ((0, 1), (-1, -1), (1, 0)), SelfLoopError, "edge (-1,-1) is a loop"),
}


@pytest.mark.parametrize("h, edges, error, message", EDGE_ERRORS.values(), ids=EDGE_ERRORS)
def test_base_graph_errors_follow_the_first_bad_edge(h, edges, error, message):
    with pytest.raises(LiftlabError) as caught:
        BaseGraph(h, edges)
    assert type(caught.value) is error and str(caught.value) == message


# each named family's edges, written out independently of its constructor
FAMILIES = {
    "k5": (5, list(itertools.combinations(range(5), 2))),
    "k9": (9, list(itertools.combinations(range(9), 2))),
    "c3": (3, [(i, (i + 1) % 3) for i in range(3)]),
    "c6": (6, [(i, (i + 1) % 6) for i in range(6)]),
    "c9p2": (9, [(i, (i + j) % 9) for i in range(9) for j in (1, 2)]),
    "c11p3": (11, [(i, (i + j) % 11) for i in range(11) for j in (1, 2, 3)]),
    "petersen": (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
}


def _edge_loop(h, edges):
    """Sorted (u, v), u < v, edges and the (d, h) neighbour index that lists each
    vertex's neighbours as a loop over the sorted edges appends them."""
    canon = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    nbrs = [[] for _ in range(h)]
    for u, v in canon:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return canon, np.array(nbrs).T


@pytest.mark.parametrize("name", FAMILIES)
def test_edges_and_neighbour_index_match_the_edge_loop(name):
    h, raw = FAMILIES[name]
    edges, index = _edge_loop(h, raw)
    base = base_from_name(name)
    reversed_text = f"{h} {len(raw)}\n" + "".join(f"{v} {u}\n" for u, v in reversed(raw))
    lift = random_lift(base, 3, np.random.default_rng(1))
    for graph in (base, BaseGraph(h, raw), BaseGraph(h, [list(e) for e in raw]),
                  base_from_text(reversed_text), base_from_text(base_to_text(base)),
                  Lift.from_json(lift.to_json()).base):
        assert type(graph.edges) is tuple and graph.edges == edges
        assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int for e in graph.edges)
        assert graph.neighbour_index().dtype == np.int64
        assert np.array_equal(graph.neighbour_index(), index)
        assert graph.d == index.shape[0]


def test_canonical_edges_are_kept_and_others_rebuilt_as_python_ints():
    edges = tuple(itertools.combinations(range(6), 2))
    assert BaseGraph(6, edges).edges is edges
    for given in (list(edges), edges[::-1], tuple((v, u) for u, v in edges), np.array(edges),
                  tuple((np.int64(u), v) for u, v in edges)):
        graph = BaseGraph(6, given)
        assert graph.edges == edges and graph.edges is not given
        assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int for e in graph.edges)


@pytest.mark.parametrize("name", ("k5", "c6", "c9p2", "petersen"))
def test_are_adjacent_reads_the_adjacency(name):
    base = base_from_name(name)
    adjacency = base.adjacency()
    for u, v in itertools.product(range(-1, base.h + 1), repeat=2):
        inside = 0 <= u < base.h and 0 <= v < base.h
        assert base.are_adjacent(u, v) is (inside and bool(adjacency[u, v] == 1.0))


def test_complete_graph_peak_memory():
    # K452 has 101,926 edges; checking and indexing them must not copy them
    # into Python sets and lists
    edges = tuple(itertools.combinations(range(452), 2))
    graph, peak = peak_mb(lambda: BaseGraph(452, edges))
    assert peak <= 15.0
    assert graph.edges is edges and graph.d == 451


# --- lift construction and serialization ------------------------------------


def test_lift_rejects_non_bijection():
    base = complete_graph(3)
    perms = {e: np.array([0, 0]) for e in base.edges}
    with pytest.raises(LiftlabError):
        Lift(base, 2, perms)


def test_lift_rejects_wrong_edge_keys():
    base = complete_graph(3)
    perms = {(0, 1): np.arange(2)}
    with pytest.raises(LiftlabError):
        Lift(base, 2, perms)


@pytest.mark.parametrize("n", [0, 1.0, True, 2 ** 63])
def test_lift_reads_its_fibre_size_by_the_sampler_rule(n):
    # True once passed as a fibre size of 1 with one-entry permutations
    base = complete_graph(3)
    with pytest.raises(ConfigError, match="n must be an integer at least 1"):
        Lift(base, n, {e: np.arange(1) for e in base.edges})


@pytest.mark.parametrize("n", [0, 2.5, True, "3", None, 10 ** 30])
def test_identity_lift_reads_its_fibre_size_by_the_sampler_rule(n):
    # "3", None and 10**30 once reached numpy and came back as a bare TypeError or ValueError
    with pytest.raises(ConfigError, match="n must be an integer at least 1"):
        identity_lift(complete_graph(3), n)


@pytest.mark.parametrize("n", [2 ** 60, 2 ** 62, 2 ** 63 - 1])
def test_an_identity_lift_no_array_holds_is_a_memory_error(n):
    # 2**60 and 2**62 once ended in a bare ValueError, and 2**63 - 1 in a lift
    # whose permutations were empty arrays: numpy's byte count wraps
    with pytest.raises(MemoryError, match=f"permutation of n = {n}$"):
        identity_lift(complete_graph(3), n)


@pytest.mark.parametrize("h", [4.0, True, "4", None])
def test_a_base_reads_its_vertex_count_as_an_integer(h):
    with pytest.raises(LiftlabError, match="the vertex count must be an integer"):
        BaseGraph(h, ((0, 1),))


def test_lift_json_round_trip():
    lift = random_lift(complete_graph(4), 5, np.random.default_rng(1))
    again = Lift.from_json(lift.to_json())
    assert again.n == lift.n
    assert again.base.edges == lift.base.edges
    for e in lift.base.edges:
        assert np.array_equal(again.perms[e], lift.perms[e])


def test_lift_json_uses_fibre_major_contract():
    lift = identity_lift(complete_graph(3), 2)
    doc = json.loads(lift.to_json())
    assert set(doc) == {"base", "n", "perms"}
    assert doc["perms"]["0-1"] == [0, 1]


def test_inverse_perm():
    lift = random_lift(complete_graph(3), 7, np.random.default_rng(2))
    e = lift.base.edges[0]
    p, q = lift.perms[e], lift.inverse_perm(e)
    assert np.array_equal(p[q], np.arange(7))
    assert not q.flags.writeable


def test_neighbours_degree():
    lift = random_lift(petersen_graph(), 4, np.random.default_rng(3))
    assert len(neighbours(lift, 0, 0)) == 3
    assert len(set(neighbours(lift, 7, 2))) == 3


# --- LiftVector --------------------------------------------------------------


def test_vector_norm_and_fibre_sums():
    v = LiftVector(np.array([[1.0, 2.0], [3.0, -3.0]]))
    assert v.norm_sq == pytest.approx(1 + 4 + 9 + 9)
    assert not is_balanced(v)


def test_lazy_norm_and_fibre_sums_keep_the_eager_bits():
    # the expressions LiftVector evaluated at construction before both became lazy
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (3, 7), (5, 400), (12, 33)]:
        arr = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        v = LiftVector(arr)
        assert v.norm_sq == math.fsum(float(t) for t in (arr * arr).sum(axis=1))


def test_balance_projects_to_zero_fibre_sums():
    rng = np.random.default_rng(4)
    v = balance(LiftVector(rng.normal(size=(3, 5))))
    assert is_balanced(v)


def test_vector_is_read_only():
    v = LiftVector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        v.values[0, 0] = 1.0


# --- operator examples -------------------------------------------------------


def test_adjacency_n1_triangle_all_ones():
    lift = identity_lift(complete_graph(3), 1)
    y = apply_adjacency(lift, LiftVector(np.ones((3, 1))))
    assert np.allclose(y.values, 2.0)


def test_adjacency_n1_triangle_unit_vector():
    lift = identity_lift(complete_graph(3), 1)
    x = np.zeros((3, 1))
    x[0, 0] = 1.0
    y = apply_adjacency(lift, LiftVector(x))
    assert np.array_equal(y.values[:, 0], [0.0, 1.0, 1.0])


def test_adjacency_matches_dense_oracle_k4():
    lift = random_lift(complete_graph(4), 3, np.random.default_rng(7))
    mat = oracle_adjacency(lift)
    x = np.random.default_rng(8).normal(size=(4, 3))
    got = apply_adjacency(lift, LiftVector(x)).flat()
    assert np.allclose(got, mat @ x.reshape(-1), atol=1e-12)


def test_expected_kills_balanced():
    lift = random_lift(complete_graph(4), 5, np.random.default_rng(9))
    x = balance(LiftVector(np.random.default_rng(10).normal(size=(4, 5))))
    y = apply_expected(lift, x)
    assert np.allclose(y.values, 0.0, atol=1e-12)


def test_expected_on_ones_is_degree():
    lift = random_lift(complete_graph(3), 6, np.random.default_rng(11))
    y = apply_expected(lift, LiftVector(np.ones((3, 6))))
    assert np.allclose(y.values, 2.0)


def test_expected_matches_dense_oracle_k4():
    lift = random_lift(complete_graph(4), 4, np.random.default_rng(12))
    mat = oracle_expected(lift)
    x = np.random.default_rng(13).normal(size=(4, 4))
    got = apply_expected(lift, LiftVector(x)).flat()
    assert np.allclose(got, mat @ x.reshape(-1), atol=1e-12)


def test_centered_kills_fibre_constants():
    lift = random_lift(petersen_graph(), 5, np.random.default_rng(14))
    c = np.random.default_rng(15).normal(size=10)
    x = lifted_eigenvector(lift, c)
    y = apply_centered(lift, x)
    assert np.allclose(y.values, 0.0, atol=1e-12)


def test_centered_is_zero_when_n_is_1():
    lift = random_lift(complete_graph(5), 1, np.random.default_rng(16))
    x = LiftVector(np.random.default_rng(17).normal(size=(5, 1)))
    assert np.allclose(apply_centered(lift, x).values, 0.0, atol=1e-12)


def test_centered_equals_adjacency_on_balanced():
    lift = random_lift(complete_graph(4), 6, np.random.default_rng(18))
    x = balance(LiftVector(np.random.default_rng(19).normal(size=(4, 6))))
    a = apply_centered(lift, x).values
    b = apply_adjacency(lift, x).values
    assert np.allclose(a, b, atol=1e-12)


def test_dimension_mismatch_raises():
    lift = identity_lift(complete_graph(3), 2)
    with pytest.raises(DimensionMismatchError):
        apply_adjacency(lift, LiftVector(np.zeros((3, 3))))


# --- stacked operator passes -------------------------------------------------


STACK_BASES = (complete_graph(4), cycle_graph(6), petersen_graph())


@pytest.mark.parametrize("base", STACK_BASES, ids=lambda b: f"h{b.h}d{b.d}")
def test_stacked_kernels_equal_the_per_slice_calls_bit_for_bit(base):
    rng = np.random.default_rng(base.h)
    lift = random_lift(base, 37, rng)
    # entries spanning many magnitudes, so any change in summation order shows
    shape = (9, lift.h, lift.n)
    stack = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 9, size=shape)
    adjacency = _adjacency_raw(lift, stack)
    expected = _expected_raw(lift, stack)
    for i, arr in enumerate(stack):
        assert np.array_equal(adjacency[i], _adjacency_raw(lift, arr))
        assert np.array_equal(expected[i], _expected_raw(lift, arr))


def per_edge_adjacency(lift, arr):
    """The adjacency as a scatter/gather loop over the edges: every vertex adds
    its neighbours to 0.0 in ``perms`` order."""
    out = np.zeros_like(arr)
    for (u, v), p in lift.perms.items():
        out[..., u, :] += arr[..., v, p]
        out[..., v, p] += arr[..., u, :]
    return out


@pytest.mark.parametrize("base", (*STACK_BASES, complete_graph(5)), ids=lambda b: f"h{b.h}d{b.d}")
def test_adjacency_gather_keeps_the_per_edge_bits(base):
    rng = np.random.default_rng(200 + base.h)
    lift = random_lift(base, 23, rng)
    doc = json.loads(lift.to_json())
    doc["perms"] = dict(reversed(doc["perms"].items()))
    unsorted = Lift.from_json(json.dumps(doc))
    assert list(unsorted.perms) != sorted(unsorted.perms)
    for which in (lift, unsorted):
        index = which.neighbour_index()
        assert index is which.neighbour_index() and not index.flags.writeable
        assert index.shape == (which.h, which.d, which.n)
        for shape in ((which.h, which.n), (12, which.h, which.n)):
            # many magnitudes, so any change of summation order shows, with
            # zeros of both signs among them; and zeros alone, where only the
            # initial +0.0 decides the sign of a sum of -0.0 terms
            arr = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 9, size=shape)
            zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
            arr = np.where(rng.random(shape) < 0.3, zeros, arr)
            for a in (arr, zeros):
                assert _adjacency_raw(which, a).tobytes() == per_edge_adjacency(which, a).tobytes()
    if base.d > 2:  # 0.0 + a + b is b + a: two terms sum alike in either order
        # the same graph with its edges in another order sums in another order
        assert _adjacency_raw(lift, arr).tobytes() != _adjacency_raw(unsorted, arr).tobytes()


def test_the_adjacency_gather_copies_no_index():
    # numpy's take copies a read-only index on every call: one gather on k5
    # n=3000 held 960 KB, its (h, d, n) values and an index copy of the same
    # size; through the kernel's writeable index it holds the values and the sum
    lift = random_lift(complete_graph(5), 3000, np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(lift.h, lift.n))
    first = _adjacency_raw(lift, x)  # builds the index outside the count
    out, peak = peak_mb(lambda: _adjacency_raw(lift, x))
    assert out.tobytes() == first.tobytes() == per_edge_adjacency(lift, x).tobytes()
    assert peak * 1e6 <= (lift.h * lift.d * lift.n + lift.h * lift.n) * 8 + 4096
    assert not lift.neighbour_index().flags.writeable


def per_edge_expected(lift, arr):
    """The expectation as a loop over the base edges: every fibre adds its
    neighbours' fibre sums to 0.0 in edge order, then spreads them over n."""
    s = arr.sum(axis=-1)
    acc = np.zeros(s.shape)
    for (u, v) in lift.base.edges:
        acc[..., u] += s[..., v]
        acc[..., v] += s[..., u]
    return np.repeat(acc[..., None] / lift.n, lift.n, axis=-1)


@pytest.mark.parametrize("base", (*STACK_BASES, complete_graph(5), complete_graph(9)),
                         ids=lambda b: f"h{b.h}d{b.d}")
def test_expected_gather_keeps_the_per_edge_bits(base):
    rng = np.random.default_rng(300 + base.h)
    lift = random_lift(base, 7, rng)
    index = base.neighbour_index()
    assert index is base.neighbour_index() and not index.flags.writeable
    assert index.shape == (base.d, base.h) and index.flags.c_contiguous
    for u in range(base.h):  # each vertex's neighbours in the order of the sorted edges
        assert index[:, u].tolist() == [v for e in base.edges if u in e for v in e if v != u]
    for shape in ((base.h, lift.n), (12, base.h, lift.n)):
        # fibre sums over many magnitudes, so any change of summation order
        # shows, with zeros of both signs among them and alone
        arr = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 9, size=shape)
        zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        arr = np.where(rng.random(shape) < 0.3, zeros, arr)
        for a in (arr, zeros):
            column = _expected_raw(lift, a)  # one value per fibre
            assert column.shape == (*shape[:-1], 1)
            assert np.broadcast_to(column, shape).tobytes() == per_edge_expected(lift, a).tobytes()
    if base.d >= 8:
        # a reduction along the last axis adds eight or more terms pairwise,
        # which gives other bits than the edge order does
        arr = rng.normal(size=(12, base.h, lift.n))
        s = arr.sum(axis=-1)
        pairwise = np.add.reduce(np.ascontiguousarray(s[..., index.T]), axis=-1, initial=0.0)
        spread = np.repeat(pairwise[..., None] / lift.n, lift.n, axis=-1)
        assert spread.tobytes() != np.broadcast_to(_expected_raw(lift, arr), arr.shape).tobytes()


def stacked_centered_forms(lift, vecs):
    """<x, C x> for each vector, from one ``_centered_raw`` pass over their stack,
    as a certificate trial takes them."""
    stack = np.stack([x.values for x in vecs])
    return [float(np.vdot(x, y)) for x, y in zip(stack, _centered_raw(lift, stack))]


@pytest.mark.parametrize("base", STACK_BASES, ids=lambda b: f"h{b.h}d{b.d}")
def test_centered_self_forms_equal_quad_form_exactly(base):
    rng = np.random.default_rng(100 + base.h)
    for n in (1, 5, 64):
        lift = random_lift(base, n, rng)
        # nonnegative dyadic candidates, as polarization produces them
        shape = (12, lift.h, lift.n)
        cands = [LiftVector(v) for v in
                 np.ldexp(1.0, rng.integers(0, 6, size=shape)) * (rng.random(shape) < 0.6)]
        assert stacked_centered_forms(lift, cands) == [quad_form(lift, "centered", c, c)
                                                       for c in cands]
    # any vectors: entries over many magnitudes, where any fibre sum other than
    # the kernel's own would change the bits
    lift = random_lift(base, 64, rng)
    shape = (5, lift.h, lift.n)
    vecs = [LiftVector(v) for v in rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)]
    assert stacked_centered_forms(lift, vecs) == [quad_form(lift, "centered", x, x) for x in vecs]


@pytest.mark.parametrize("base", STACK_BASES, ids=lambda b: f"h{b.h}d{b.d}")
def test_apply_centered_is_the_raw_kernel_byte_for_byte(base):
    # the solver iterates _centered_raw and the certified quotient applies
    # apply_centered: over many magnitudes, one fibre-sum rule gives both the same bits
    rng = np.random.default_rng(500 + base.h)
    lift = random_lift(base, 64, rng)
    for _ in range(5):
        arr = rng.normal(size=(lift.h, lift.n)) * 10.0 ** rng.integers(-8, 8, size=(lift.h, lift.n))
        x = LiftVector(arr)
        assert apply_centered(lift, x).values.tobytes() == _centered_raw(lift, arr).tobytes()
        assert (apply_expected(lift, x).values.tobytes()
                == np.broadcast_to(_expected_raw(lift, arr), arr.shape).tobytes())
        assert apply_adjacency(lift, x).values.tobytes() == _adjacency_raw(lift, arr).tobytes()


KIND_ENTRY_POINTS = {
    "apply_operator": apply_operator,
    "dense_operator": lambda lift, kind, x: dense_operator(lift, kind),
    "dense_spectrum": lambda lift, kind, x: dense_spectrum(lift, kind),
    "quad_form": lambda lift, kind, x: quad_form(lift, kind, x, x),
    "quad_form_restricted": lambda lift, kind, x: quad_form_restricted(lift, kind, x, x),
}


@pytest.mark.parametrize("kind", ["centred", "", "Centered"])
@pytest.mark.parametrize("entry", KIND_ENTRY_POINTS)
def test_every_entry_point_refuses_an_unknown_operator_kind(entry, kind):
    lift = random_lift(complete_graph(4), 3, np.random.default_rng(24))
    x = LiftVector(np.ones((lift.h, lift.n)))
    with pytest.raises(LiftlabError, match=f"unknown operator kind {kind!r}"):
        KIND_ENTRY_POINTS[entry](lift, kind, x)


# --- lifted eigenvectors -----------------------------------------------------


def test_lifted_all_ones_eigenvector():
    lift = random_lift(complete_graph(3), 4, np.random.default_rng(20))
    y = lifted_eigenvector(lift, np.ones(3))
    assert np.allclose(apply_adjacency(lift, y).values, 2 * y.values)


def test_lifted_second_eigenvector_triangle():
    lift = random_lift(complete_graph(3), 4, np.random.default_rng(21))
    y = lifted_eigenvector(lift, np.array([1.0, -1.0, 0.0]))
    assert np.allclose(apply_adjacency(lift, y).values, -1.0 * y.values)


def test_lifted_petersen_eigenvector():
    base = petersen_graph()
    w, vecs = np.linalg.eigh(base.adjacency())
    idx = int(np.argmin(np.abs(w - 1.0)))
    assert w[idx] == pytest.approx(1.0)
    lift = random_lift(base, 3, np.random.default_rng(22))
    y = lifted_eigenvector(lift, vecs[:, idx])
    assert np.allclose(apply_adjacency(lift, y).values, y.values, atol=1e-10)


# --- dense assembly and induced subgraphs ------------------------------------


def test_dense_operator_matches_oracles():
    lift = random_lift(complete_graph(4), 3, np.random.default_rng(23))
    assert np.allclose(dense_operator(lift, "adjacency"), oracle_adjacency(lift))
    assert np.allclose(dense_operator(lift, "expected"), oracle_expected(lift))
    assert np.allclose(dense_operator(lift, "centered"), oracle_centered(lift))


def test_dense_operator_guard():
    lift = identity_lift(complete_graph(3), 1000)
    with pytest.raises(DenseGuardError):
        dense_operator(lift, "adjacency")


def test_induced_adjacency_identity_lift():
    lift = identity_lift(complete_graph(3), 2)
    sub = induced_adjacency(lift, [(0, 0), (1, 0), (2, 0)])
    assert np.array_equal(sub, complete_graph(3).adjacency())
    mixed = induced_adjacency(lift, [(0, 0), (1, 1)])
    assert np.array_equal(mixed, np.zeros((2, 2)))


@pytest.mark.parametrize("base", STACK_BASES, ids=lambda b: f"h{b.h}d{b.d}")
def test_induced_adjacency_gather_equals_the_per_edge_loop(base):
    rng = np.random.default_rng(300 + base.h)
    for n in (1, 3, 40):
        lift = random_lift(base, n, rng)
        grid = [(i, j) for i in range(lift.h) for j in range(n)]
        for size in (0, 1, len(grid) // 3, len(grid)):
            chosen = [grid[k] for k in rng.permutation(len(grid))[:size]]
            sub = induced_adjacency(lift, chosen)
            assert sub.tobytes() == oracle_induced(lift, chosen).tobytes()
        with pytest.raises(LiftlabError, match="distinct"):
            induced_adjacency(lift, [grid[1], grid[0], grid[1]])


@pytest.mark.parametrize("bad", [(0, -1), (0, 100), (4, 0), (-1, 0), (0, 2 ** 70)])
def test_induced_adjacency_rejects_vertices_outside_the_lift(bad):
    lift = random_lift(complete_graph(4), 100, np.random.default_rng(31))
    with pytest.raises(LiftlabError, match="must lie in"):
        induced_adjacency(lift, [(1, 2), bad])


# --- operator properties (hypothesis) ----------------------------------------


@settings(max_examples=40, deadline=None)
@given(lift_with_vector())
def test_quadratic_form_two_routes_agree(case):
    lift, vals = case
    x = LiftVector(vals)
    via_n = float(np.vdot(vals, apply_centered(lift, x).values))
    diff = apply_adjacency(lift, x).values - apply_expected(lift, x).values
    via_parts = float(np.vdot(vals, diff))
    scale = max(1.0, abs(via_n), abs(via_parts))
    assert abs(via_n - via_parts) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(lift_with_vector())
def test_adjacency_row_sums_are_degree(case):
    lift, _ = case
    ones = LiftVector(np.ones((lift.h, lift.n)))
    assert np.allclose(apply_adjacency(lift, ones).values, lift.d)


@settings(max_examples=40, deadline=None)
@given(lift_with_vector())
def test_balanced_subspace_invariant_under_adjacency(case):
    lift, vals = case
    x = balance(LiftVector(vals))
    assert is_balanced(apply_adjacency(lift, x), tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(lift_with_vector())
def test_operators_are_symmetric(case):
    lift, vals = case
    rng = np.random.default_rng(int(abs(vals).sum() * 1e6) % 2**32)
    y = LiftVector(rng.normal(size=vals.shape))
    x = LiftVector(vals)
    for op in (apply_adjacency, apply_expected, apply_centered):
        left = float(np.vdot(vals, op(lift, y).values))
        right = float(np.vdot(op(lift, x).values, y.values))
        assert abs(left - right) <= 1e-10 * max(1.0, abs(left), abs(right))


@settings(max_examples=30, deadline=None)
@given(lift_with_vector())
def test_centered_image_is_balanced(case):
    lift, vals = case
    y = apply_centered(lift, LiftVector(vals))
    assert is_balanced(y, tol=1e-10)
