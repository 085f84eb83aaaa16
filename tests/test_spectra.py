import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftlab.spectra as spectra
from liftlab.eigensolve import _top_end
from liftlab.errors import ConfigError, NotConvergedError, TooLargeError
from liftlab.experiment import run_cell
from liftlab.graphs import (
    BaseGraph,
    Lift,
    LiftVector,
    apply_adjacency,
    apply_centered,
    balance,
    base_from_name,
    base_from_text,
    complete_graph,
    cycle_graph,
    identity_lift,
    lifted_eigenvector,
    petersen_graph,
)
from liftlab.sampling import SeededRng, plant_clique, sample_lift
from liftlab.spectra import (
    balanced_basis,
    centered_rayleigh,
    dense_spectrum,
    lambda_star,
    new_spectrum,
)

from _support import is_balanced, oracle_adjacency, oracle_centered, random_lift
from test_eigensolve import REPEATED_EXTREMES, REPEATED_IDS, SIMPLE_EXTREMES


def multiset_close(a, b, tol=1e-8):
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    return a.shape == b.shape and np.allclose(a, b, atol=tol)


# --- dense_spectrum -----------------------------------------------------------


def test_spectrum_triangle_n1():
    lift = identity_lift(complete_graph(3), 1)
    assert multiset_close(dense_spectrum(lift), [2, -1, -1])


def test_spectrum_two_disjoint_triangles():
    lift = identity_lift(complete_graph(3), 2)
    assert multiset_close(dense_spectrum(lift), [2, 2, -1, -1, -1, -1])


def test_spectrum_matches_numpy_oracle():
    lift = random_lift(complete_graph(4), 5, np.random.default_rng(1))
    ref = np.linalg.eigvalsh(oracle_adjacency(lift))
    assert multiset_close(dense_spectrum(lift), ref, tol=1e-9)


def test_spectrum_guard():
    lift = identity_lift(complete_graph(3), 1000)
    with pytest.raises(TooLargeError):
        dense_spectrum(lift)


# --- balanced basis and new_spectrum -------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=30))
def test_balanced_basis_orthonormal(n):
    w = balanced_basis(n)
    assert np.allclose(w.T @ w, np.eye(n - 1), atol=1e-12)
    assert np.allclose(w.sum(axis=0), 0.0, atol=1e-12)


def test_new_spectrum_n1_empty():
    lift = identity_lift(complete_graph(4), 1)
    assert new_spectrum(lift).size == 0


def test_new_spectrum_disjoint_triangles():
    lift = identity_lift(complete_graph(3), 2)
    assert multiset_close(new_spectrum(lift), [2, -1, -1])


def test_multiset_identity_random_lift():
    # spec(M) with h extra zeros equals spec(H) joined with spec(N); both
    # sides via the independent dense oracles.
    lift = random_lift(complete_graph(4), 4, np.random.default_rng(2))
    m_side = np.concatenate([np.linalg.eigvalsh(oracle_adjacency(lift)), np.zeros(4)])
    h_side = np.concatenate([
        np.linalg.eigvalsh(lift.base.adjacency()),
        np.linalg.eigvalsh(oracle_centered(lift)),
    ])
    assert multiset_close(m_side, h_side, tol=1e-8)


def test_new_spectrum_equals_centered_minus_kernel():
    # the centered operator has exactly h zero eigenvalues on fibre-constant
    # vectors; the rest is the balanced spectrum, here of the oracle adjacency
    # restricted to an orthonormal balanced basis of each fibre
    lift = random_lift(petersen_graph(), 3, np.random.default_rng(3))
    basis = np.kron(np.eye(10), balanced_basis(3))
    restricted = basis.T @ oracle_adjacency(lift) @ basis
    balanced = np.linalg.eigvalsh((restricted + restricted.T) / 2.0)
    assert multiset_close(new_spectrum(lift), balanced, tol=1e-8)
    lhs = np.concatenate([balanced, np.zeros(10)])
    rhs = np.linalg.eigvalsh(oracle_centered(lift))
    assert multiset_close(lhs, rhs, tol=1e-8)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5))
def test_new_spectrum_within_operator_norm(seed, n):
    lift = random_lift(complete_graph(4), n, np.random.default_rng(seed))
    vals = new_spectrum(lift)
    assert vals.size == (n - 1) * 4
    assert np.all(np.abs(vals) <= 3 + 1e-9)


# --- old eigenvalues persist ---------------------------------------------------


def test_old_spectrum_containment():
    lift = random_lift(petersen_graph(), 6, np.random.default_rng(4))
    base_vals, base_vecs = np.linalg.eigh(lift.base.adjacency())
    from liftlab.graphs import apply_adjacency

    for k in range(10):
        y = lifted_eigenvector(lift, base_vecs[:, k])
        resid = apply_adjacency(lift, y).values - base_vals[k] * y.values
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y.values)


# --- lambda_star ----------------------------------------------------------------


def test_lambda_star_n1_is_zero():
    rep = lambda_star(identity_lift(complete_graph(5), 1))
    assert rep.lambda_star == 0.0
    assert rep.lambda_top == pytest.approx(4.0)


@pytest.mark.parametrize("name, method, label", [("k5", "auto", "iterative"), ("c6", "auto", "dense"),
                                                 ("k5", "dense", "dense"),
                                                 ("k5", "iterative", "iterative")])
def test_a_single_fibre_lift_reports_the_method_it_was_asked(name, method, label):
    # n = 1 returns before any solve, with the label the solve would have had:
    # "auto" is dense on a bipartite base alone
    rep = lambda_star(identity_lift(base_from_name(name), 1), method=method)
    assert (rep.method, rep.lambda_star, rep.iterations) == (label, 0.0, 0)


def test_lambda_star_disjoint_copies_equals_base_modulus():
    lift = identity_lift(petersen_graph(), 2)
    rep = lambda_star(lift, tol=1e-10)
    assert rep.lambda_star == pytest.approx(3.0, abs=1e-8)


def test_lambda_star_matches_dense_at_small_size():
    lift = random_lift(complete_graph(4), 20, np.random.default_rng(5))
    vals = new_spectrum(lift)
    want = float(np.max(np.abs(vals)))
    rep = lambda_star(lift, tol=1e-10, method="iterative")
    assert rep.method == "iterative"
    assert rep.lambda_star == pytest.approx(want, abs=1e-6)


def test_lambda_star_dense_method_agrees():
    lift = random_lift(complete_graph(4), 20, np.random.default_rng(6))
    dense = lambda_star(lift, method="dense")
    iterative = lambda_star(lift, tol=1e-10, method="iterative")
    assert dense.method == "dense"
    assert dense.lambda_star == pytest.approx(iterative.lambda_star, abs=1e-6)


@pytest.mark.parametrize("method", ["bogus", "Dense", ""])
@pytest.mark.parametrize("n", [1, 20])
def test_lambda_star_rejects_an_unknown_method(method, n):
    # a single-fibre lift returns early, so the method is checked before that
    lift = random_lift(complete_graph(4), n, np.random.default_rng(6))
    with pytest.raises(ConfigError, match="method"):
        lambda_star(lift, method=method)


@pytest.mark.parametrize("tol", [True, 10 ** 400, math.nan, "1e-8"],
                         ids=["bool", "int-beyond-float", "nan", "string"])
def test_lambda_star_rejects_a_bad_tolerance(tol):
    lift = random_lift(complete_graph(4), 20, np.random.default_rng(6))
    with pytest.raises(ConfigError, match="tol"):
        lambda_star(lift, tol=tol)


def test_lambda_star_bounded_by_degree():
    for seed in range(4):
        lift = random_lift(petersen_graph(), 12, np.random.default_rng(seed))
        rep = lambda_star(lift, tol=1e-8)
        assert 0.0 <= rep.lambda_star <= 3.0 + 1e-9


def test_lambda_star_witness_rayleigh_consistency():
    lift = random_lift(complete_graph(5), 40, np.random.default_rng(9))
    tol = 1e-8
    rep = lambda_star(lift, tol=tol, method="iterative")
    ray = abs(centered_rayleigh(lift, rep.witness))
    assert rep.lambda_star - 10 * tol <= ray <= rep.lambda_star + 1e-12
    assert is_balanced(rep.witness, tol=1e-8)


@pytest.mark.parametrize("name, n, method", [("k4", 150, "dense"), ("c6", 100, "dense"),
                                             ("petersen", 60, "iterative"), ("k5", 400, "auto")])
def test_the_reported_residual_is_the_witnesses_own(name, n, method):
    lift = sample_lift(base_from_name(name), n, SeededRng(3))
    rep = lambda_star(lift, method=method)
    x = rep.witness.flat()
    image = oracle_centered(lift) @ x
    rho = float(x @ image) / float(x @ x)
    assert rep.converged and abs(rho) == pytest.approx(rep.lambda_star, rel=1e-12)
    want = np.linalg.norm(image - rho * x) / np.linalg.norm(x)
    assert rep.residual == pytest.approx(want, rel=1e-6, abs=1e-14)


def test_a_witness_off_its_implicit_residual_is_not_converged(monkeypatch):
    """A solver whose vector moved after its implicit residual was taken: the report's
    own residual catches it, and the cell fails."""
    real = spectra.lanczos_extreme

    def drifted(matvec, dim, start, **kwargs):
        out = real(matvec, dim, start, **kwargs)
        noise = balance(LiftVector(np.random.default_rng(5).normal(size=(4, dim // 4)))).flat()
        vector = out.vector + 1e-4 * noise / np.linalg.norm(noise)
        return dataclasses.replace(out, vector=vector / np.linalg.norm(vector))

    lift = sample_lift(complete_graph(4), 150, SeededRng(1))
    honest = lambda_star(lift)
    monkeypatch.setattr(spectra, "lanczos_extreme", drifted)
    rep = lambda_star(lift)
    assert honest.converged and not rep.converged
    assert rep.iterations == honest.iterations and rep.residual > 100 * honest.residual
    with pytest.raises(NotConvergedError, match="did not converge"):
        run_cell(complete_graph(4), 150, 1, stages=("spectrum",))


def test_lambda_star_planted_clique_lower_bound():
    # vector: on each clique fibre, 1 - 1/n at the designated vertex and
    # -1/(n-1) spread? no - use the balanced indicator: 1 at position 0,
    # -1/(n-1) at the rest; supported only on the s clique fibres
    s, n = 5, 30
    base = complete_graph(9)
    lift = plant_clique(sample_lift(base, n, SeededRng(12)), list(range(s)))
    vals = np.zeros((9, n))
    vals[:s, 0] = 1.0
    vals[:s, 1:] = -1.0 / (n - 1)
    x = LiftVector(vals)
    ray = centered_rayleigh(lift, x)
    assert ray == pytest.approx(s - 1, abs=1e-10)
    rep = lambda_star(lift, tol=1e-8)
    assert rep.lambda_star >= s - 1 - 1e-6


def test_lambda_top_is_degree():
    lift = random_lift(complete_graph(6), 15, np.random.default_rng(10))
    rep = lambda_star(lift, tol=1e-6)
    assert rep.lambda_top == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("name, n", [("k4", 1), ("k4", 150), ("k5", 120), ("c6", 100),
                                     ("petersen", 60), ("k4", 1000)])
def test_lambda_top_is_the_rayleigh_quotient_of_all_ones_bit_for_bit(name, n):
    lift = sample_lift(base_from_name(name), n, SeededRng(3))
    ones = LiftVector(np.ones((lift.h, n)))
    quotient = float(np.vdot(ones.values, apply_adjacency(lift, ones).values)) / ones.norm_sq
    assert lambda_star(lift).lambda_top == quotient == float(lift.d)


# --- balanced starts --------------------------------------------------------------


@pytest.mark.parametrize("name", ["k4", "k5", "c6", "petersen"])
def test_centered_operator_is_zero_on_fibre_constant_vectors(name):
    # why each solver balances only its start vector: rounding drift towards
    # fibre-constant vectors lands in the centered operator's kernel
    base = base_from_name(name)
    lift = sample_lift(base, 50, SeededRng(3))
    x = lifted_eigenvector(lift, np.random.default_rng(3).normal(size=base.h))
    image = apply_centered(lift, x).values
    assert np.abs(image).max() <= 1e-12 * math.sqrt(x.norm_sq)


@pytest.mark.parametrize("name,n,method", [("k4", 1000, "iterative"), ("c6", 100, "dense")])
def test_witness_from_a_balanced_start_stays_balanced(name, n, method):
    lift = sample_lift(base_from_name(name), n, SeededRng(1))
    rep = lambda_star(lift)
    assert rep.method == method
    assert np.abs(rep.witness.values.sum(axis=1)).max() <= 1e-12


# --- one witness per lift -------------------------------------------------------------


def _theta_and_projection(lift):
    """theta, the extreme of the new spectrum at the dense path's end, and the
    projection of the balanced default_rng(7) start onto theta's eigenspace, by
    eigh of the dense centered operator: QL's end of a bipartite base's tie, and
    the top-end rule on eigh's values elsewhere."""
    w, v = np.linalg.eigh(oracle_centered(lift))
    end = spectra._tie_end(lift) if spectra._bipartite(lift.base) else _top_end(w[0], w[-1])
    theta = w[-1] if end == "max" else w[0]
    space = v[:, np.abs(w - theta) <= 1e-9 * max(1.0, abs(theta))]
    start = balance(LiftVector(np.random.default_rng(7).normal(size=(lift.h, lift.n)))).flat()
    return theta, space @ (space.T @ start), space.shape[1]


# c6 is dense only: on its +-theta tie "abs" need not take the end that QL picks
@pytest.mark.parametrize("name,n,seed,multiplicity,method", [
    (name, n, seed, multiplicity, method) for name, n, multiplicities, methods in (
        ("c6", 100, (4, 3, 2, 3, 3, 6, 5, 6), ("dense",)),
        ("k4", 150, (1,) * 8, ("dense", "iterative")),
        ("k5", 120, (1,) * 8, ("dense", "iterative")),
        ("petersen", 60, (1,) * 8, ("dense", "iterative")))
    for seed, multiplicity in zip(range(1, 9), multiplicities) for method in methods])
def test_dense_witness_is_its_start_projected_onto_the_extreme_eigenspace(
        name, n, seed, multiplicity, method):
    # a Krylov space holds, within each eigenspace, only the start's projection
    # onto it, so Lanczos aimed at theta's end returns that projection, on the
    # start's side; every nh = 600 cell of the sweep pool, by both methods
    lift = sample_lift(base_from_name(name), n, SeededRng(seed))
    theta, projection, found = _theta_and_projection(lift)
    assert found == multiplicity
    rep = lambda_star(lift, method=method)
    assert rep.method == method
    x = rep.witness.flat()
    assert x @ projection >= (1.0 - 1e-12) * np.linalg.norm(x) * np.linalg.norm(projection)
    assert abs(centered_rayleigh(lift, rep.witness) - theta) <= 1e-12


# --- the dense path on bipartite bases alone ------------------------------------------


BIPARTITE_BASES = {"c6": base_from_name("c6"), "c4": cycle_graph(4), "c8": cycle_graph(8),
                   "k33": base_from_text("6 9\n" + "\n".join(f"{u} {v}" for u in range(3)
                                                             for v in range(3, 6)))}


def test_bipartite_reads_an_exact_two_colouring_of_the_base():
    assert all(spectra._bipartite(base) for base in BIPARTITE_BASES.values())
    for name in ("k2", "k3", "k4", "k5", "c5", "c7", "c9p2", "petersen"):
        assert spectra._bipartite(base_from_name(name)) == (name == "k2")
    two_squares = BaseGraph(8, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)))
    square_and_triangles = BaseGraph(10, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6),
                                          (7, 8), (8, 9), (7, 9)))
    assert spectra._bipartite(two_squares) and not spectra._bipartite(square_and_triangles)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BIPARTITE_BASES)), n=st.integers(2, 60),
       seed=st.integers(0, 10**6))
def test_the_new_spectrum_of_a_bipartite_base_is_symmetric(name, n, seed):
    # D, +-1 on each fibre by its colour class, keeps the balanced vectors and
    # DCD = -C: the fact that makes the +-theta tie certain and the dense path's
    # LAPACK spectrum needless there
    base = BIPARTITE_BASES[name]
    vals = new_spectrum(sample_lift(base, n, SeededRng(seed)))
    assert np.abs(np.sort(vals) - np.sort(-vals)).max() <= 1e-12 * base.d


def test_a_bipartite_lift_of_a_base_that_is_not_has_no_symmetric_new_spectrum():
    # the triangle's 2-lift with one crossed matching is the hexagon, bipartite,
    # yet its new spectrum is {1, 1, -2}: the rule reads the base, not the lift
    triangle = complete_graph(3)
    swap = np.array([1, 0])
    lift = Lift(triangle, 2, {(0, 1): np.arange(2), (0, 2): np.arange(2), (1, 2): swap})
    hexagon = BaseGraph(6, tuple((u * 2 + j, v * 2 + int(p[j]))
                                 for (u, v), p in lift.perms.items() for j in range(2)))
    assert spectra._bipartite(hexagon) and not spectra._bipartite(triangle)
    assert np.allclose(new_spectrum(lift), [1.0, 1.0, -2.0], atol=1e-12)
    assert lambda_star(lift).method == "iterative"


def _calls(monkeypatch, name):
    calls = []
    real = getattr(spectra, name)
    monkeypatch.setattr(spectra, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("name, n, method, householder, lapack", [
    ("c6", 100, "auto", 1, 0), ("c6", 100, "dense", 1, 0),
    ("k4", 150, "auto", 0, 0), ("k4", 150, "dense", 0, 1)])
def test_the_dense_path_runs_lapack_only_where_a_tie_is_not_certain(
        name, n, method, householder, lapack, monkeypatch):
    calls = [_calls(monkeypatch, f) for f in ("householder_tridiagonalize", "symmetric_eigenvalues")]
    rep = lambda_star(sample_lift(base_from_name(name), n, SeededRng(1)), method=method)
    assert rep.method == ("dense" if method == "dense" or name == "c6" else "iterative")
    assert [len(c) for c in calls] == [householder, lapack]


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("name, n", [("k4", 150), ("k5", 120), ("petersen", 60)])
def test_auto_on_a_small_lift_of_a_base_that_is_not_bipartite_matches_eigvalsh(name, n, seed):
    # the benchmark's cross-check on every nh = 600 cell that "auto" solves by
    # Lanczos: the extreme modulus of eigvalsh of the entry-by-entry centered
    # operator, whose h kernel zeros never reach it
    lift = sample_lift(base_from_name(name), n, SeededRng(seed))
    rep = lambda_star(lift)
    assert rep.method == "iterative" and rep.converged
    want = float(np.abs(np.linalg.eigvalsh(oracle_centered(lift))).max())
    assert rep.lambda_star == pytest.approx(want, rel=1e-9, abs=0.0)


# --- an accidental tie takes the top end ---------------------------------------------


@pytest.mark.parametrize("perm", [[1, 0, 3, 2], [1, 0, 3, 2, 5, 4]], ids=["two-cubes", "three-cubes"])
@pytest.mark.parametrize("method", ["auto", "dense", "iterative"])
def test_an_accidental_tie_takes_the_top_end_by_every_method(perm, method, monkeypatch):
    # one involution on every edge of K4 splits the lift into cubes, K4's bipartite
    # double cover: the new spectrum holds both +3 and -3, on a base that is not
    # bipartite, and every method takes +3 without Householder
    base = complete_graph(4)
    lift = Lift(base, len(perm), {edge: np.array(perm) for edge in base.edges})
    vals = new_spectrum(lift)
    assert np.isclose(vals[0], 3.0) and np.isclose(vals[-1], -3.0)
    calls = _calls(monkeypatch, "householder_tridiagonalize")
    rep = lambda_star(lift, method=method)
    assert rep.method == ("dense" if method == "dense" else "iterative")
    assert centered_rayleigh(lift, rep.witness) == pytest.approx(3.0, rel=1e-9)
    assert calls == []


def _dense_on(m, monkeypatch):
    """``_lambda_star(method="dense")`` on a stand-in 2-lift of the triangle, which is
    not bipartite, whose centered operator is m on the balanced vectors: the report,
    the values it returned, the end it aimed Lanczos at, and the operator."""
    w = balanced_basis(2)
    op = np.kron(m, w @ w.T)
    monkeypatch.setattr(spectra, "dense_operator", lambda lift, kind: op)
    monkeypatch.setattr(spectra, "_centered_raw",
                        lambda lift, x: (op @ x.reshape(-1)).reshape(x.shape))
    ends, real = [], spectra.lanczos_extreme
    monkeypatch.setattr(spectra, "lanczos_extreme",
                        lambda *args, which, **kw: ends.append(which) or real(*args, which=which, **kw))
    lift = SimpleNamespace(n=2, h=len(m), d=1, base=complete_graph(3))
    rep, vals = spectra._lambda_star(lift, 1e-10, "dense")
    return rep, vals, ends, op


@pytest.mark.parametrize("m, end", list(zip(SIMPLE_EXTREMES + REPEATED_EXTREMES,
                                            ["max", "max", "min", "max", "max", "max", "max"])),
                         ids=["random", "near-tie-1e-6", "negative-extreme", *REPEATED_IDS])
def test_the_dense_path_takes_the_top_end_of_lapacks_values(m, end, monkeypatch):
    # off a bipartite base the dense path aims at _top_end of LAPACK's balanced
    # spectrum, the rule "abs" Lanczos applies to its Ritz values: a repeated
    # extreme modulus (fourfold: LAPACK's -2 is the larger) takes the top end
    calls = _calls(monkeypatch, "householder_tridiagonalize")
    rep, vals, ends, op = _dense_on(m, monkeypatch)
    assert np.allclose(vals, np.linalg.eigvalsh(m)[::-1], atol=1e-12)
    assert ends == [_top_end(vals[-1], vals[0])] == [end]
    assert rep.method == "dense" and rep.converged and calls == []
    x = rep.witness.flat()
    assert float(x @ op @ x) / float(x @ x) == pytest.approx(vals[0] if end == "max" else vals[-1],
                                                            rel=1e-9)
