import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftlab.eigensolve as eigensolve
import liftlab.spectra as spectra
from liftlab.eigensolve import (householder_tridiagonalize, lanczos_extreme,
                                symmetric_eigenvalues, tridiagonal_eigenvalues)
from liftlab.graphs import base_from_name, complete_graph
from liftlab.sampling import SeededRng, sample_lift
from liftlab.spectra import lambda_star


def random_symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return (a + a.T) / 2


# numpy's eigvalsh serves as the independent oracle throughout this file.


def test_single_entry():
    assert symmetric_eigenvalues(np.array([[3.5]])) == pytest.approx([3.5])


def test_two_by_two():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert symmetric_eigenvalues(m) == pytest.approx([3.0, 1.0])


def test_diag_matrix():
    m = np.diag([5.0, -2.0, 0.0, 3.0])
    assert symmetric_eigenvalues(m) == pytest.approx([5.0, 3.0, 0.0, -2.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_dense_matches_numpy_oracle(n, seed):
    m = random_symmetric(n, seed)
    mine = symmetric_eigenvalues(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.allclose(mine, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))


def test_dense_larger_instance():
    m = random_symmetric(200, 77)
    mine = symmetric_eigenvalues(m)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.allclose(mine, ref, atol=1e-8)


def test_clustered_eigenvalues():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    vals = np.array([4.0] * 10 + [1.0] * 10 + [-2.0] * 10)
    m = q @ np.diag(vals) @ q.T
    mine = symmetric_eigenvalues((m + m.T) / 2)
    assert np.allclose(mine, np.sort(vals)[::-1], atol=1e-9)


def _balanced_restriction(base, n, seed, monkeypatch):
    """The matrix new_spectrum hands to the dense solver for one sweep cell's lift."""
    seen = []
    solve = spectra.symmetric_eigenvalues
    monkeypatch.setattr(spectra, "symmetric_eigenvalues", lambda m: seen.append(m) or solve(m))
    spectra.new_spectrum(sample_lift(base_from_name(base), n, SeededRng(seed)))
    return seen[0]


@pytest.mark.parametrize("base, n, seed, digest", [
    ("k4", 150, 1, "b852dd304887fdf8c6e9ad3f7b2d8a8d049aea762fcf4febbb705572f65e099c"),
    ("c6", 100, 6, "881f9101182b8870e14a7dce64a0ef046c52a69bcc4faf836dcfb346875e585f"),
])
def test_householder_bits_are_pinned(base, n, seed, digest, monkeypatch):
    # the c6 witness sign hangs on these bits (the +-theta tie), so the
    # tridiagonal form of two sweep cells' restrictions is pinned exactly
    d, e = householder_tridiagonalize(_balanced_restriction(base, n, seed, monkeypatch))
    assert hashlib.sha256(d.tobytes() + e.tobytes()).hexdigest() == digest


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_tridiagonal_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.allclose(tridiagonal_eigenvalues(d, e), ref, atol=1e-10)


# --- Lanczos -----------------------------------------------------------------


def test_lanczos_max_on_dense():
    m = random_symmetric(120, 3)
    ref = np.linalg.eigvalsh(m)
    out = lanczos_extreme(lambda x: m @ x, 120, np.random.default_rng(0).normal(size=120),
                          which="max", tol=1e-10)
    assert out.converged
    assert out.value == pytest.approx(ref[-1], abs=1e-8)
    assert np.linalg.norm(m @ out.vector - out.value * out.vector) < 1e-6


def test_lanczos_min_and_abs():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(80, 80)))
    vals = np.linspace(-9.0, 5.0, 80)
    m = q @ np.diag(vals) @ q.T
    m = (m + m.T) / 2
    start = rng.normal(size=80)
    mn = lanczos_extreme(lambda x: m @ x, 80, start, which="min", tol=1e-10)
    ab = lanczos_extreme(lambda x: m @ x, 80, start, which="abs", tol=1e-10)
    assert mn.value == pytest.approx(-9.0, abs=1e-8)
    assert ab.value == pytest.approx(-9.0, abs=1e-8)


def test_lanczos_abs_picks_positive_side():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(60, 60)))
    vals = np.linspace(-3.0, 7.0, 60)
    m = q @ np.diag(vals) @ q.T
    m = (m + m.T) / 2
    out = lanczos_extreme(lambda x: m @ x, 60, rng.normal(size=60), which="abs", tol=1e-10)
    assert out.value == pytest.approx(7.0, abs=1e-8)


def test_lanczos_projected_subspace():
    # restrict to the orthogonal complement of the all-ones direction
    m = random_symmetric(50, 21)
    ones = np.ones(50) / np.sqrt(50)

    def project(x):
        return x - ones * float(ones @ x)

    def matvec(x):
        return project(m @ project(x))

    out = lanczos_extreme(matvec, 50, np.random.default_rng(2).normal(size=50),
                          which="max", tol=1e-10, project=project)
    p = np.eye(50) - np.outer(ones, ones)
    ref = np.linalg.eigvalsh(p @ m @ p)
    assert out.converged
    assert out.value == pytest.approx(ref[-1], abs=1e-7)
    assert abs(float(ones @ out.vector)) < 1e-9


def test_lanczos_flags_non_convergence():
    m = random_symmetric(90, 31)
    out = lanczos_extreme(lambda x: m @ x, 90, np.ones(90), which="max",
                          tol=1e-14, max_iter=4)
    assert not out.converged
    assert out.iterations <= 4


def test_lanczos_invariant_subspace_early_exit():
    # start vector is an exact eigenvector: residual hits zero immediately
    m = np.diag([4.0, 2.0, 1.0])
    e0 = np.array([1.0, 0.0, 0.0])
    out = lanczos_extreme(lambda x: m @ x, 3, e0, which="max", tol=1e-12)
    assert out.converged
    assert out.value == pytest.approx(4.0, abs=1e-12)


def test_lanczos_zero_start_after_projection():
    def project(x):
        return 0.0 * x

    out = lanczos_extreme(lambda x: x, 4, np.ones(4), project=project)
    assert out.converged and out.value == 0.0


def test_lanczos_restarts_with_a_small_basis():
    m = random_symmetric(200, 41)
    ref = np.linalg.eigvalsh(m)
    start = np.random.default_rng(4).normal(size=200)
    for which, want in (("max", ref[-1]), ("min", ref[0])):
        out = lanczos_extreme(lambda x: m @ x, 200, start, which=which, tol=1e-10,
                              max_basis=12)
        assert out.converged
        assert out.restarts > 0, "the basis limit must force restarts"
        assert out.value == pytest.approx(want, abs=1e-9)
        assert np.linalg.norm(out.vector) == pytest.approx(1.0)
        # the implicit residual bound matches the true residual
        true_resid = np.linalg.norm(m @ out.vector - out.value * out.vector)
        assert true_resid == pytest.approx(out.residual, rel=1e-2)


def test_lanczos_ritz_vector_sign_convention():
    # a positive matrix has a positive Perron vector; starting from all-ones,
    # the Ritz vector is returned with its entries summing to at most zero
    rng = np.random.default_rng(9)
    a = rng.uniform(size=(70, 70))
    m = (a + a.T) / 2
    out = lanczos_extreme(lambda x: m @ x, 70, np.ones(70), which="max", tol=1e-10)
    assert out.converged
    assert out.vector.sum() <= 0.0
    assert np.all(out.vector < 0.0)


def test_lanczos_iteration_count_is_pinned():
    # pins the restart scheme (a 48-vector basis keeping 16 Ritz vectors,
    # checked every 8 steps) on one sweep cell, not a correctness bound:
    # a change to the scheme re-pins it on a before/after comparison
    lift = sample_lift(complete_graph(4), 1000, SeededRng(1))
    rep = lambda_star(lift, rng=SeededRng(1, 101))
    assert rep.method == "iterative"
    assert rep.converged
    assert rep.iterations == 272


def _with_spectrum(vals, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(vals.size, vals.size)))
    m = (q * vals) @ q.T
    return (m + m.T) / 2


def test_lanczos_abs_finds_a_negative_extreme_across_thick_restarts():
    m = _with_spectrum(np.linspace(-6.0, 5.0, 300), 13)
    ref = np.linalg.eigvalsh(m)
    out = lanczos_extreme(lambda x: m @ x, 300, np.ones(300), which="abs", tol=1e-10)
    assert out.converged
    assert out.restarts >= 2
    assert out.value == pytest.approx(ref[0], abs=1e-9)
    assert np.linalg.norm(m @ out.vector - out.value * out.vector) < 1e-8


def test_lanczos_converges_into_a_tight_cluster_at_the_wanted_end():
    vals = np.concatenate([4.0 + 1e-12 * np.arange(6), np.linspace(-3.0, 3.0, 194)])
    m = _with_spectrum(vals, 17)
    ref = np.linalg.eigvalsh(m)
    out = lanczos_extreme(lambda x: m @ x, 200, np.random.default_rng(3).normal(size=200),
                          which="max", tol=1e-10, max_basis=12)
    assert out.converged
    assert out.restarts > 0
    assert abs(out.value - ref[-1]) <= 1e-10
    assert np.linalg.norm(m @ out.vector - out.value * out.vector) <= 1e-8


def test_lanczos_cap_mid_cycle_returns_the_current_ritz_pair():
    # a 12-vector basis keeps 4 Ritz vectors, so step 17 falls between checks
    m = random_symmetric(150, 43)
    out = lanczos_extreme(lambda x: m @ x, 150, np.random.default_rng(5).normal(size=150),
                          which="max", tol=1e-14, max_iter=17, max_basis=12)
    assert not out.converged
    assert out.iterations == 17 and out.restarts == 1
    assert math.isfinite(out.residual) and out.residual > 0.0
    assert np.linalg.norm(out.vector) == pytest.approx(1.0)
    assert out.value <= np.linalg.eigvalsh(m)[-1] + 1e-12


def test_lanczos_dgks_second_pass_runs_as_the_krylov_space_closes(monkeypatch):
    # four tight clusters: the Krylov space nearly closes after four steps,
    # and a tolerance out of reach drives the iteration on until the basis
    # spans the space and the first Gram-Schmidt pass cancels almost all of w
    fired = []

    class Threshold(float):
        def __mul__(self, norm):
            return Product(float(self) * norm)

    class Product(float):
        def __gt__(self, norm):  # evaluates the test ``norm < threshold * before``
            fired.append(norm < float(self))
            return fired[-1]

    monkeypatch.setattr(eigensolve, "_DGKS", Threshold(eigensolve._DGKS))
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(24, 24)))
    vals = np.repeat([5.0, 1.0, -2.0, 0.5], 6) + 1e-6 * rng.normal(size=24)
    m = (q * vals) @ q.T
    m = (m + m.T) / 2
    ref = np.linalg.eigvalsh(m)
    start = rng.normal(size=24)
    for which, want in (("max", ref[-1]), ("min", ref[0])):
        fired.clear()
        out = lanczos_extreme(lambda x: m @ x, 24, start, which=which, tol=1e-15)
        assert any(fired), "the second pass never ran"
        assert len(fired) == out.iterations
        assert out.converged
        assert out.value == pytest.approx(want, abs=1e-12)
        assert np.linalg.norm(m @ out.vector - out.value * out.vector) < 1e-12
