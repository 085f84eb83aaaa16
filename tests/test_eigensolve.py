import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.eigensolve import lanczos_extreme, symmetric_eigenvalues, tridiagonal_eigenvalues
from liftlab.graphs import complete_graph
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
                          tol=1e-14, max_iter=4, max_restarts=0)
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
                              max_basis=12, max_restarts=20)
        assert out.converged
        assert out.iterations > 12, "the basis limit must force restarts"
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
    # the benchmark reference records 264 iterations for this cell; the
    # Ritz-pair method must not move the check cadence or restarts
    lift = sample_lift(complete_graph(4), 1000, SeededRng(1))
    rep = lambda_star(lift, rng=SeededRng(1, 101))
    assert rep.method == "iterative"
    assert rep.converged
    assert rep.iterations == 264
