import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftlab.eigensolve as eigensolve
import liftlab.spectra as spectra
from liftlab.eigensolve import lanczos_extreme, symmetric_eigenvalues
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


def _with_spectrum(vals, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(vals.size, vals.size)))
    m = (q * vals) @ q.T
    return (m + m.T) / 2


def _count_householder(monkeypatch):
    calls = []
    real = spectra.householder_tridiagonalize
    monkeypatch.setattr(spectra, "householder_tridiagonalize",
                        lambda m: calls.append(m) or real(m))
    return calls


SIMPLE_EXTREMES = [
    random_symmetric(60, 11),
    _with_spectrum(np.array([3.0, -3.0 * (1 - 1e-6), 1.0, 0.5, -1.5, 0.0]), 3),
    _with_spectrum(np.array([-4.0, 3.999, 1.0, 2.0]), 3),
]
REPEATED_EXTREMES = [
    _with_spectrum(np.array(vals), 3) for vals in ([3.0, -3.0, 1.0, 0.5, -1.5, 0.0],
                                                   [3.0, 3.0, 1.0, -2.0],
                                                   [-2.0, -2.0, 2.0, 2.0, 0.0],
                                                   [3.0, -3.0 * (1 - 1e-11), 1.0, 0.5])
]
REPEATED_IDS = ["plus-minus", "repeated", "fourfold", "tie-within-1e-9"]


@pytest.mark.parametrize("m", SIMPLE_EXTREMES + REPEATED_EXTREMES,
                         ids=["random", "near-tie-1e-6", "negative-extreme", *REPEATED_IDS])
def test_symmetric_eigenvalues_are_lapacks(m, monkeypatch):
    calls = _count_householder(monkeypatch)
    assert np.array_equal(symmetric_eigenvalues(m), np.linalg.eigvalsh(m)[::-1])
    assert calls == []


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
    # a start vector in the orthogonal complement of the all-ones direction,
    # an invariant subspace of the operator, keeps the Krylov space there
    m = random_symmetric(50, 21)
    ones = np.ones(50) / np.sqrt(50)

    def project(x):
        return x - ones * float(ones @ x)

    def matvec(x):
        return project(m @ project(x))

    out = lanczos_extreme(matvec, 50, project(np.random.default_rng(2).normal(size=50)),
                          which="max", tol=1e-10)
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
    # all-ones balanced to zero: there is no Krylov space to search
    ones = np.ones(4)
    out = lanczos_extreme(lambda x: x, 4, ones - ones.mean())
    assert out.converged and out.value == 0.0 and out.iterations == 0


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
    # the Ritz vector is returned on its start's side, <x, start> >= 0: a positive
    # matrix's Perron vector from all-ones is positive, and with the start negated
    # the same solve returns the same vector negated, bit for bit
    rng = np.random.default_rng(9)
    a = rng.uniform(size=(70, 70))
    m = (a + a.T) / 2
    out = lanczos_extreme(lambda x: m @ x, 70, np.ones(70), which="max", tol=1e-10)
    assert out.converged
    assert np.all(out.vector > 0.0)
    for start in (rng.normal(size=70), -rng.normal(size=70)):
        for which in ("max", "min", "abs"):
            x = lanczos_extreme(lambda v: m @ v, 70, start, which=which, tol=1e-10).vector
            assert float(x @ start) >= 0.0
            assert np.array_equal(lanczos_extreme(lambda v: m @ v, 70, -start, which=which,
                                                  tol=1e-10).vector, -x)


# Lanczos steps that lambda_star takes on each sweep-pool cell, seeded as run_cell
# seeds them: (name, n) -> the count for seeds 1, 2, ...; a re-pin edits a value here
ITERATIONS = {
    ("k4", 1000): (320, 240, 280, 256, 360, 264, 272, 232),
    ("petersen", 500): (248, 264, 256, 328, 224, 280, 264, 312),
    ("k5", 3000): (272,),
    ("k4", 150): (136, 128, 136, 136, 136, 128, 112, 152),
    ("k5", 120): (120, 104, 128, 104, 112, 104, 112, 120),
    ("c6", 100): (336, 328, 344, 336, 336, 312, 344, 304),
    ("petersen", 60): (136, 128, 136, 112, 152, 144, 136, 136),
}


def _pinned_iterations(name, n, seed, method):
    rep = lambda_star(sample_lift(base_from_name(name), n, SeededRng(seed)))
    assert rep.method == method
    assert rep.converged
    assert rep.iterations == ITERATIONS[name, n][seed - 1]


def test_lanczos_iteration_count_is_pinned():
    # pins the restart scheme (a 48-vector basis keeping 16 Ritz vectors,
    # checked every 8 steps) on one sweep cell, not a correctness bound:
    # a change to the scheme re-pins it on a before/after comparison
    _pinned_iterations("k4", 1000, 1, "iterative")


@pytest.mark.parametrize("name,n,seed", [
    *[("k4", 1000, seed) for seed in range(2, 9)],
    *[("petersen", 500, seed) for seed in range(1, 9)],
    ("k5", 3000, 1)])
def test_lanczos_iteration_counts_of_the_sweep_pool_are_pinned(name, n, seed):
    """The sweep pool's other 16 Lanczos cells, pinned like k4 n=1000 seed 1 above.

    These pin a path, not a result: a solver change that moves no row still moves
    them. Correctness is stated by the projection test
    (test_spectra.py::test_dense_witness_is_its_start_projected_onto_the_extreme_eigenspace),
    the basis-size test (test_experiment.py::test_the_lanczos_basis_size_does_not_move_a_row)
    and the semi-orthogonality tests below.
    """
    _pinned_iterations(name, n, seed, "iterative")


@pytest.mark.parametrize("name,n,seed", [
    (name, n, seed) for name, n in (("k4", 150), ("k5", 120), ("c6", 100), ("petersen", 60))
    for seed in range(1, 9)])
def test_dense_iteration_counts_of_the_sweep_pool_are_pinned(name, n, seed):
    """The sweep pool's 32 dense cells, whose witness comes from Lanczos aimed at the
    exact spectrum's extreme end.

    Path pins like the Lanczos cells above, stated correct by the same projection,
    basis-size and semi-orthogonality tests.
    """
    _pinned_iterations(name, n, seed, "dense")


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
        # every step that ran the full pass evaluated the DGKS test, and only those
        assert len(fired) == out.full_passes
        assert out.converged
        assert out.value == pytest.approx(want, abs=1e-12)
        assert np.linalg.norm(m @ out.vector - out.value * out.vector) < 1e-12


@pytest.mark.parametrize("kwargs", [{"tol": float("nan")}, {"tol": -1.0}, {"max_iter": 0},
                                    {"max_iter": -5}, {"max_basis": 3.5}],
                         ids=["tol-nan", "tol-negative", "max-iter-zero", "max-iter-negative",
                              "max-basis-float"])
def test_lanczos_reads_its_arguments_by_one_rule(kwargs):
    # a nan or negative tol once stepped on past the closed Krylov space into a
    # row of the basis it never wrote; max_iter <= 0 ran one step
    m = np.diag(np.arange(10.0))
    with pytest.raises(ValueError):
        lanczos_extreme(lambda x: m @ x, 10, np.ones(10), **kwargs)


def _recorded_cycles(run, basis=48):
    # the vectors matvec receives, split into the cycles between thick restarts
    # (the first holds the whole basis, each later one basis - basis // 3)
    seen = []
    out = run(lambda matvec: lambda x: seen.append(x.copy()) or matvec(x))
    cycles, size = [], basis
    while seen:
        cycles.append(np.array(seen[:size]))
        del seen[:size]
        size = basis - basis // 3
    return out, cycles


def _orthogonality(cycle):
    return np.abs(cycle @ cycle.T - np.eye(len(cycle))).max()


def test_lanczos_basis_stays_semi_orthogonal_without_a_restart():
    vals = np.concatenate([[3.0, 2.5], np.random.default_rng(2).normal(size=1998)])
    start = np.random.default_rng(3).normal(size=2000)
    out, cycles = _recorded_cycles(lambda wrap: lanczos_extreme(
        wrap(lambda x: vals * x), 2000, start, which="max", tol=1e-300, max_iter=48))
    assert out.iterations == 48 and out.restarts == 0 and len(cycles) == 1
    assert 0 < out.full_passes < out.iterations
    assert _orthogonality(cycles[0]) <= math.sqrt(np.finfo(float).eps)


def test_lanczos_basis_stays_semi_orthogonal_across_thick_restarts(monkeypatch):
    real = spectra.lanczos_extreme

    def run(wrap):
        got = []
        monkeypatch.setattr(spectra, "lanczos_extreme", lambda matvec, *a, **kw: got.append(
            real(wrap(matvec), *a, **kw)) or got[-1])
        lambda_star(sample_lift(complete_graph(4), 500, SeededRng(1)))
        return got[0]

    out, cycles = _recorded_cycles(run)
    assert out.converged and out.restarts >= 4 and len(cycles) == out.restarts + 1
    assert max(map(_orthogonality, cycles)) <= math.sqrt(np.finfo(float).eps)


def test_lanczos_takes_a_separated_top_value_once_through_many_restarts():
    # once the top pair converges, a basis that lost orthogonality grows ghost
    # copies of it; the tolerance is out of reach, so only the cap stops it.
    # With no reorthogonalization at all the true residual here is 8e-13
    m = _with_spectrum(np.concatenate([[2.0, 1.6], np.linspace(-1.0, 1.0, 298)]), 5)
    out = lanczos_extreme(lambda x: m @ x, 300, np.random.default_rng(23).normal(size=300),
                          which="max", tol=1e-300, max_iter=600)
    assert out.iterations == 600 and out.restarts >= 15
    assert abs(out.value - 2.0) <= 1e-10
    assert np.linalg.norm(m @ out.vector - out.value * out.vector) <= 1e-13


def test_lanczos_keeps_ritz_vectors_exact_between_two_tight_clusters():
    # every cycle nearly closes the Krylov space (beta ~ 1e-6); at the level
    # sqrt(eps) the full passes dropped enough of the Lanczos relation to leave
    # true residuals of 1e-10 here, against 1e-14 with a full pass every step
    rng = np.random.default_rng(3)
    m = _with_spectrum(np.repeat([1.0, -3.0], 60) + 1e-6 * rng.normal(size=120), 4)
    ref = np.linalg.eigvalsh(m)
    start = rng.normal(size=120)
    for which, want in (("max", ref[-1]), ("min", ref[0])):
        out = lanczos_extreme(lambda x: m @ x, 120, start, which=which, tol=1e-15, max_basis=24)
        assert out.converged and out.restarts > 0
        assert abs(out.value - want) <= 1e-12
        assert np.linalg.norm(m @ out.vector - out.value * out.vector) <= 1e-13


def test_partial_reorthogonalization_skips_most_full_passes(monkeypatch):
    # the sweep's spectrum-only cell: without the omega estimate every step
    # would run the full Gram-Schmidt pass over up to 49 x 15000 doubles
    real, got = spectra.lanczos_extreme, []
    monkeypatch.setattr(spectra, "lanczos_extreme",
                        lambda *a, **kw: got.append(real(*a, **kw)) or got[-1])
    assert lambda_star(sample_lift(complete_graph(5), 3000, SeededRng(1))).converged
    assert 0 < got[0].full_passes <= got[0].iterations // 4
