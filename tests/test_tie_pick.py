"""Householder + QL, and the dense path's tie pick, the one place they serve.

On a repeated extreme modulus of the new spectrum, such as the +-theta tie of
a bipartite base like c6, ``spectra._theta`` takes the end that Householder +
QL pick on the balanced restriction, because the recorded c6 rows were made
with that pick. Everywhere else the values are LAPACK's. Deleting QL deletes
this file; the Lanczos and LAPACK tests stay in ``test_eigensolve.py``.
"""

import hashlib
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

from test_eigensolve import REPEATED_EXTREMES, REPEATED_IDS, SIMPLE_EXTREMES, _count_householder


def _extreme(vals):
    return vals[np.argmax(np.abs(vals))]


@pytest.mark.parametrize("base, n, seed, digest", [
    ("k4", 150, 1, "b852dd304887fdf8c6e9ad3f7b2d8a8d049aea762fcf4febbb705572f65e099c"),
    ("c6", 100, 6, "881f9101182b8870e14a7dce64a0ef046c52a69bcc4faf836dcfb346875e585f"),
])
def test_householder_bits_are_pinned(base, n, seed, digest, monkeypatch):
    # the c6 witness sign hangs on these bits (the +-theta tie), so the
    # tridiagonal form of two sweep cells' restrictions is pinned exactly;
    # a stand-in tie makes the pick restrict k4's lift, whose extreme is simple
    calls = _count_householder(monkeypatch)
    spectra._theta(sample_lift(base_from_name(base), n, SeededRng(seed)), np.array([1.0, -1.0]))
    d, e = householder_tridiagonalize(calls[0])
    assert hashlib.sha256(d.tobytes() + e.tobytes()).hexdigest() == digest


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
