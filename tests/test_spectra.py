import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftlab.spectra as spectra
from liftlab.errors import ConfigError, TooLargeError
from liftlab.graphs import (
    LiftVector,
    apply_adjacency,
    apply_centered,
    balance,
    base_from_name,
    complete_graph,
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


@pytest.mark.parametrize("method, label", [("auto", "dense"), ("dense", "dense"),
                                           ("iterative", "iterative")])
def test_a_single_fibre_lift_reports_the_method_it_was_asked(method, label):
    # n = 1 returns before any solve, with the label the solve would have had
    rep = lambda_star(identity_lift(complete_graph(5), 1), method=method)
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
    """theta, the tie pick's extreme of the new spectrum, and the projection of
    the balanced default_rng(7) start onto theta's eigenspace, by eigh of the
    dense centered operator."""
    theta = spectra._theta(lift, new_spectrum(lift))
    w, v = np.linalg.eigh(oracle_centered(lift))
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
