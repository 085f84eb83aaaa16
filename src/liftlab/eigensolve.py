"""Symmetric eigensolvers.

Dense path: Householder reduction to tridiagonal form followed by the
implicit-shift QL iteration (eigenvalues only), whose scalar sweeps run on
Python floats. Iterative path: thick-restart Lanczos in a fixed basis of
48 vectors, driven by a caller-supplied matvec, with full
reorthogonalization that takes a second Gram-Schmidt pass only when the
DGKS test asks for it; the Ritz pairs of the small projected matrix come
from LAPACK (``numpy.linalg.eigh``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError

_EPS = np.finfo(np.float64).eps
# Daniel, Gragg, Kaufman & Stewart (Math. Comp. 30, 1976): a second Gram-Schmidt
# pass is needed only when the first left less than this fraction of the norm.
_DGKS = 1.0 / math.sqrt(2.0)


def householder_tridiagonalize(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    Returns (diagonal, subdiagonal); the input is not modified. Only the
    eigenvalue-relevant data is kept (reflectors are not accumulated).
    """
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    scratch = np.empty(n * n)  # holds each rank-one update
    for k in range(n - 2):
        x = a[k + 1:, k]
        nx = math.sqrt(float(x @ x))
        if nx <= _EPS * max(1.0, abs(a[k, k])):
            a[k + 1:, k] = 0.0
            a[k, k + 1:] = 0.0
            a[k + 1, k] = a[k, k + 1] = 0.0
            continue
        alpha = -math.copysign(nx, x[0]) if x[0] != 0.0 else -nx
        v = x.copy()
        v[0] -= alpha
        vn = math.sqrt(float(v @ v))
        if vn == 0.0:
            continue
        v /= vn
        sub = a[k + 1:, k + 1:]
        w = sub @ v
        q = w - v * float(v @ w)
        # doubling is exact, so (2v) q^T has the bits of 2 (v q^T)
        t = scratch[: sub.size].reshape(sub.shape)
        sub -= np.multiply.outer(2.0 * v, q, out=t)
        sub -= np.multiply.outer(2.0 * q, v, out=t)
        a[k + 1:, k] = 0.0
        a[k, k + 1:] = 0.0
        a[k + 1, k] = a[k, k + 1] = alpha
    d = np.diag(a).copy()
    e = np.array([a[i + 1, i] for i in range(n - 1)]) if n > 1 else np.zeros(0)
    return d, e


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted descending.

    Implicit-shift QL with per-eigenvalue iteration caps; accurate to
    machine-level relative error for well-scaled inputs. The sweeps run on
    Python floats: the same IEEE bits as numpy scalars, at a third the cost.
    """
    d = np.array(diag, dtype=np.float64)
    n = d.size
    if n == 0:
        return np.zeros(0)
    e = np.zeros(n)
    e[: n - 1] = np.asarray(off, dtype=np.float64)
    d, e = d.tolist(), e.tolist()
    for l in range(n):
        iters = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd + 1e-300:
                    break
                m += 1
            if m == l:
                break
            iters += 1
            if iters > 60:
                raise NotConvergedError("QL iteration stalled")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: deflate and sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.sort(d)[::-1]


def symmetric_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted descending."""
    d, e = householder_tridiagonalize(mat)
    return tridiagonal_eigenvalues(d, e)


# ---------------------------------------------------------------------------
# Thick-restart Lanczos with full reorthogonalization


@dataclass
class IterativeResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    restarts: int


def _ritz_pairs(t: np.ndarray, which: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of the projected matrix and the index of the selected one.

    The selected eigenvector is signed to sum to at most zero, which keeps
    the Ritz vector, and every witness rounded from it, stable.
    """
    vals, vecs = np.linalg.eigh(t)
    top = which == "max" or (which == "abs" and abs(vals[-1]) >= abs(vals[0]))
    i = vals.size - 1 if top else 0
    if vecs[:, i].sum() > 0.0:
        vecs[:, i] = -vecs[:, i]
    return vals, vecs, i


def lanczos_extreme(matvec, dim: int, start: np.ndarray, which: str = "abs",
                    tol: float = 1e-8, max_iter: int | None = None,
                    project=None, check_every: int = 8,
                    max_basis: int = 48) -> IterativeResult:
    """Extreme eigenpair of a symmetric operator given only matvec.

    ``which`` selects "max" (most positive), "min" (most negative), or
    "abs" (largest modulus). ``project``, when given, is applied to the
    start vector and to every new Krylov direction, restricting the whole
    computation to an invariant subspace of the operator.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22(2),
    2000) in a basis of m = ``max_basis`` vectors. Each step takes one
    classical Gram-Schmidt pass against the basis, and a second only when
    the first left less than 1/sqrt(2) of the vector's norm (the DGKS test).
    A full basis keeps its m // 3 Ritz vectors nearest the wanted end and
    continues from the last Lanczos vector, so the projected matrix is
    diagonal on the kept block, with an arrowhead row coupling it to that
    vector, then tridiagonal. Every ``check_every`` steps LAPACK gives its
    Ritz pair, converged once the implicit residual beta*|s_last| drops
    below tol times the scale max|alpha| + max beta over all steps. After
    ``max_iter`` steps the current Ritz pair is returned, unconverged.
    """
    if which not in ("max", "min", "abs"):
        raise ValueError("which must be max, min, or abs")
    if max_basis < 2:
        raise ValueError("max_basis must be at least 2")
    if max_iter is None:
        max_iter = 10 * dim
    v = np.array(start, dtype=np.float64).reshape(-1)
    if v.shape != (dim,):
        raise ValueError("start vector has wrong length")
    if project is not None:
        v = project(v)
    nv = math.sqrt(float(v @ v))
    if nv == 0.0:
        return IterativeResult(0.0, v, 0, 0.0, True, 0)

    m = min(max_basis, dim)
    keep = max(1, m // 3)
    basis = np.empty((m + 1, dim))
    basis[0] = v / nv
    t = np.zeros((m, m))  # projected matrix basis[:k] A basis[:k]^T
    k = total_iters = restarts = 0  # k: basis vectors before this step
    amax = bmax = 0.0
    while True:
        q = basis[k]
        w = matvec(q)
        if project is not None:
            w = project(w)
        a = float(q @ w)
        t[k, k] = a
        w = w - a * q
        if k:  # right after a restart, basis[keep] couples to every kept vector
            lo = 0 if restarts and k == keep else k - 1
            w -= t[lo:k, k] @ basis[lo:k]
        known = basis[: k + 1]
        before = math.sqrt(float(w @ w))
        w -= known.T @ (known @ w)
        b = math.sqrt(float(w @ w))
        if b < _DGKS * before:  # cancellation: one more Gram-Schmidt pass
            w -= known.T @ (known @ w)
            b = math.sqrt(float(w @ w))
        total_iters += 1
        k += 1
        amax = max(amax, abs(a))
        scale = max(1.0, amax + bmax)
        exact = b <= 1e3 * _EPS * scale  # the Krylov space is invariant
        if not exact:
            bmax = max(bmax, b)
            basis[k] = w / b
            if k < m:
                t[k, k - 1] = t[k - 1, k] = b
        if exact or k % check_every == 0 or k == m or total_iters >= max_iter:
            vals, vecs, i = _ritz_pairs(t[:k, :k], which)
            resid = 0.0 if exact else b * abs(float(vecs[-1, i]))
            if resid <= tol * scale or total_iters >= max_iter:
                x = basis[:k].T @ vecs[:, i]
                return IterativeResult(float(vals[i]), x / math.sqrt(float(x @ x)),
                                       total_iters, resid, resid <= tol * scale, restarts)
            if k == m:  # thick restart: keep the Ritz vectors nearest the wanted end
                near = np.abs(vals) if which == "abs" else vals if which == "max" else -vals
                kept = np.argsort(near, kind="stable")[-keep:]
                basis[:keep] = vecs[:, kept].T @ basis[:m]
                basis[keep] = basis[m]
                t.fill(0.0)
                t[:keep, :keep] = np.diag(vals[kept])
                t[keep, :keep] = t[:keep, keep] = b * vecs[-1, kept]
                k = keep
                restarts += 1
