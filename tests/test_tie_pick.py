"""Householder + QL, and the dense path's tie pick, the one place they serve.

On a repeated extreme modulus of the new spectrum, such as the +-theta tie of
a bipartite base like c6, ``spectra._theta`` takes the end that Householder +
QL pick on the balanced restriction, because the recorded c6 rows were made
with that pick. Everywhere else the values are LAPACK's. Deleting QL deletes
this file; the Lanczos and LAPACK tests stay in ``test_eigensolve.py``.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftlab.spectra as spectra
from liftlab.eigensolve import householder_tridiagonalize, tridiagonal_eigenvalues
from liftlab.experiment import run_cell
from liftlab.graphs import base_from_name
from liftlab.sampling import SeededRng, sample_lift
from liftlab.spectra import centered_rayleigh, lambda_star, new_spectrum

from _support import peak_mb
from test_eigensolve import REPEATED_EXTREMES, REPEATED_IDS, SIMPLE_EXTREMES, _count_householder


def _extreme(vals):
    return vals[np.argmax(np.abs(vals))]


def _restriction(base, n, seed, monkeypatch):
    """The balanced restriction that the tie pick hands Householder on a sweep
    cell; a stand-in tie makes the pick restrict a lift whose extreme is simple."""
    calls = _count_householder(monkeypatch)
    spectra._theta(sample_lift(base_from_name(base), n, SeededRng(seed)), np.array([1.0, -1.0]))
    return calls[0]


@pytest.mark.parametrize("base, n, seed, digest", [
    ("k4", 150, 1, "b852dd304887fdf8c6e9ad3f7b2d8a8d049aea762fcf4febbb705572f65e099c"),
    ("c6", 100, 1, "a40a6a068fb359e795e32b3314daec4b8307a81cd2fa0e40a0769d1592937f6e"),
    ("c6", 100, 2, "a3b96c5616935f7c9cbf53bcd674e8ca91907905fcfd012bbaf0f0b2a9309ff5"),
    ("c6", 100, 3, "b95d5835d39b1c63235370f06809ba586462c2f7faffe58a4abbd19eb0ff4e71"),
    ("c6", 100, 4, "7dc56e688852ac19c3cb4e161cdfa6b7feeab0eed04a033b662de7573ceb81b8"),
    ("c6", 100, 5, "e818da1df0a8bf7c4f42496e1170643176745371a9c9f04aac9a0d4120d740af"),
    ("c6", 100, 6, "881f9101182b8870e14a7dce64a0ef046c52a69bcc4faf836dcfb346875e585f"),
    ("c6", 100, 7, "048dec169693e7a07182c0bd5cdb26e4aa8bf92eff649eff8b3f055b9db2c977"),
    ("c6", 100, 8, "cfa18c736caa2533920a1d2e43d2c01fbfa8d7fd6074771fad77aba09bd92a0f"),
])
def test_householder_bits_are_pinned(base, n, seed, digest, monkeypatch):
    # the c6 witness sign hangs on these bits (the +-theta tie), so the
    # tridiagonal form of every c6 sweep cell's restriction is pinned exactly
    d, e = householder_tridiagonalize(_restriction(base, n, seed, monkeypatch))
    assert hashlib.sha256(d.tobytes() + e.tobytes()).hexdigest() == digest


def _strided_householder(mat):
    """The reduction as an in-place rank-two update of the strided trailing view,
    with ``np.multiply.outer``: the bit reference for ``householder_tridiagonalize``."""
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1:, k]
        nx = math.sqrt(float(x @ x))
        if nx <= np.finfo(np.float64).eps * max(1.0, abs(a[k, k])):
            a[k + 1:, k] = 0.0
            a[k, k + 1:] = 0.0
            continue
        alpha = -math.copysign(nx, x[0]) if x[0] != 0.0 else -nx
        v = x.copy()
        v[0] -= alpha
        v /= math.sqrt(float(v @ v))
        sub = a[k + 1:, k + 1:]
        w = sub @ v
        q = w - v * float(v @ w)
        sub -= np.multiply.outer(2.0 * v, q)
        sub -= np.multiply.outer(2.0 * q, v)
        a[k + 1:, k] = 0.0
        a[k, k + 1:] = 0.0
        a[k + 1, k] = a[k, k + 1] = alpha
    return np.diag(a).copy(), np.diag(a, -1).copy()


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=10**6),
       st.sampled_from([None, 0, 1, 3]), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.booleans())
def test_householder_has_the_bits_of_the_strided_update(n, seed, decimals, zeros, tied):
    # the swapped contiguous blocks give the bits of the strided update of a + 0.0:
    # exact zeros of both signs (whole zero columns skip their step), repeated
    # entries from rounding, and doubled eigenvalues from two equal blocks
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
    if decimals is not None:
        a = np.round(a, decimals)
    a = np.where(rng.random((n, n)) < zeros, np.where(rng.random((n, n)) < 0.5, 0.0, -0.0), a)
    a = np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)  # symmetric, signs of zero kept
    if tied:
        a = np.kron(np.eye(2), a[: n // 2, : n // 2])
    d, e = householder_tridiagonalize(a)
    ref_d, ref_e = _strided_householder(a + 0.0)
    assert (d.dtype, e.dtype, d.shape, e.shape) == (ref_d.dtype, ref_e.dtype, ref_d.shape, ref_e.shape)
    assert d.tobytes() + e.tobytes() == ref_d.tobytes() + ref_e.tobytes()


def test_householder_holds_two_blocks_at_most(monkeypatch):
    # the two swapped buffers are the only n x n arrays: the peak is two of
    # them and a few vectors, on the 594 x 594 c6 restriction
    mat = _restriction("c6", 100, 1, monkeypatch)
    n = mat.shape[0]
    householder_tridiagonalize(mat[:8, :8])  # first-call allocations outside the count
    _, peak = peak_mb(lambda: householder_tridiagonalize(mat))
    assert n == 594
    assert peak * 1e6 <= 2 * n * n * 8 + 32 * n * 8


def _theta_of(m, monkeypatch):
    """The tie pick's theta on a stand-in 2-lift whose balanced restriction is m up
    to rounding, and the new spectrum it was handed."""
    w = spectra.balanced_basis(2)
    monkeypatch.setattr(spectra, "dense_operator", lambda lift, kind: np.kron(m, w @ w.T))
    lift = SimpleNamespace(n=2, h=len(m))
    vals = new_spectrum(lift)
    return spectra._theta(lift, vals), vals


@pytest.mark.parametrize("m", SIMPLE_EXTREMES, ids=["random", "near-tie-1e-6", "negative-extreme"])
def test_simple_extreme_takes_the_lapack_values(m, monkeypatch):
    calls = _count_householder(monkeypatch)
    theta, vals = _theta_of(m, monkeypatch)
    assert theta == _extreme(vals)
    assert np.allclose(vals, np.linalg.eigvalsh(m)[::-1], atol=1e-12)
    assert calls == []


@pytest.mark.parametrize("m", REPEATED_EXTREMES, ids=REPEATED_IDS)
def test_repeated_extreme_modulus_takes_the_ql_values(m, monkeypatch):
    # the dense witness's eigenspace hangs on the bits of theta, which the
    # recorded rows took from Householder + QL
    calls = _count_householder(monkeypatch)
    theta, _ = _theta_of(m, monkeypatch)
    assert len(calls) == 1
    assert theta == _extreme(tridiagonal_eigenvalues(*householder_tridiagonalize(calls[0])))


def test_a_simple_extreme_dense_cell_never_tridiagonalizes(monkeypatch):
    def refuse(mat):
        raise AssertionError("Householder ran on a simple extreme")

    monkeypatch.setattr(spectra, "householder_tridiagonalize", refuse)
    row = run_cell(base_from_name("k4"), 150, 1)
    assert row.lambda_star > 0.0


def test_a_bipartite_dense_cell_tridiagonalizes_once(monkeypatch):
    calls = _count_householder(monkeypatch)
    run_cell(base_from_name("c6"), 100, 1)
    assert len(calls) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_tridiagonal_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.allclose(tridiagonal_eigenvalues(d, e), ref, atol=1e-10)


@pytest.mark.parametrize("seed", range(1, 9))
def test_dense_witness_takes_the_sign_of_theta_on_a_bipartite_tie(seed):
    # on c6 both +-theta are extreme; the tie pick's theta picks the end
    lift = sample_lift(base_from_name("c6"), 100, SeededRng(seed))
    vals = new_spectrum(lift)
    theta = spectra._theta(lift, vals)
    assert np.min(np.abs(vals + theta)) <= 1e-9
    rep = lambda_star(lift)
    assert rep.method == "dense"
    assert np.sign(centered_rayleigh(lift, rep.witness)) == np.sign(theta)


@pytest.mark.parametrize("name, n", [("c6", 100), ("k4", 150)])
def test_new_spectrum_builds_no_basis_and_runs_no_ql(name, n, monkeypatch):
    def refuse(*args):
        raise AssertionError("new_spectrum reached the tie pick")

    for attr in ("balanced_basis", "householder_tridiagonalize"):
        monkeypatch.setattr(spectra, attr, refuse)
    lift = sample_lift(base_from_name(name), n, SeededRng(1))
    assert new_spectrum(lift).size == (n - 1) * lift.h


@pytest.mark.parametrize("seed, end", [(seed, -1.0 if seed == 7 else 1.0) for seed in range(1, 9)])
def test_only_the_c6_tie_reaches_ql_once_and_takes_its_end(seed, end, monkeypatch):
    # QL picks +theta on seven c6 cells and -theta on seed 7; the recorded rows
    # were made with these ends
    calls = _count_householder(monkeypatch)
    lift = sample_lift(base_from_name("c6"), 100, SeededRng(seed))
    rep = lambda_star(lift)
    assert len(calls) == 1
    assert np.sign(centered_rayleigh(lift, rep.witness)) == end
