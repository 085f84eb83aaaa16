"""Symmetric eigensolvers.

Dense path: Householder reduction to tridiagonal form followed by the
implicit-shift QL iteration (eigenvalues only). Iterative path: restarted
Lanczos with full reorthogonalization driven by a caller-supplied matvec;
the extreme Ritz pair of the growing tridiagonal matrix comes from LAPACK
(``numpy.linalg.eigh``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError

_EPS = np.finfo(np.float64).eps


def householder_tridiagonalize(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    Returns (diagonal, subdiagonal); the input is not modified. Only the
    eigenvalue-relevant data is kept (reflectors are not accumulated).
    """
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
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
        sub -= 2.0 * np.outer(v, q)
        sub -= 2.0 * np.outer(q, v)
        a[k + 1:, k] = 0.0
        a[k, k + 1:] = 0.0
        a[k + 1, k] = a[k, k + 1] = alpha
    d = np.diag(a).copy()
    e = np.array([a[i + 1, i] for i in range(n - 1)]) if n > 1 else np.zeros(0)
    return d, e


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted descending.

    Implicit-shift QL with per-eigenvalue iteration caps; accurate to
    machine-level relative error for well-scaled inputs.
    """
    d = np.array(diag, dtype=np.float64)
    n = d.size
    if n == 0:
        return np.zeros(0)
    e = np.zeros(n)
    e[: n - 1] = np.asarray(off, dtype=np.float64)
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
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.sort(d)[::-1]


def symmetric_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted descending."""
    d, e = householder_tridiagonalize(mat)
    return tridiagonal_eigenvalues(d, e)


# ---------------------------------------------------------------------------
# Lanczos with full reorthogonalization


@dataclass
class IterativeResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _ritz_pair(alphas: np.ndarray, betas: np.ndarray, which: str) -> tuple[float, np.ndarray]:
    """The selected extreme eigenpair of the Lanczos tridiagonal matrix.

    The eigenvector's sign is fixed so that its entries sum to at most zero,
    which keeps the Ritz vector, and every witness rounded from it, stable.
    """
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    vals, vecs = np.linalg.eigh(t)
    top = which == "max" or (which == "abs" and abs(vals[-1]) >= abs(vals[0]))
    i = -1 if top else 0
    s = vecs[:, i]
    if s.sum() > 0.0:
        s = -s
    return float(vals[i]), s


def _unit(x: np.ndarray) -> np.ndarray:
    nx = math.sqrt(float(x @ x))
    return x / nx if nx > 0 else x


def lanczos_extreme(matvec, dim: int, start: np.ndarray, which: str = "abs",
                    tol: float = 1e-8, max_iter: int | None = None,
                    project=None, check_every: int = 8,
                    max_basis: int = 400, max_restarts: int = 3) -> IterativeResult:
    """Extreme eigenpair of a symmetric operator given only matvec.

    ``which`` selects "max" (most positive), "min" (most negative), or
    "abs" (largest modulus). ``project``, when given, is applied to the
    start vector and to every new Krylov direction, restricting the whole
    computation to an invariant subspace of the operator.

    Runs restarted Lanczos with full reorthogonalization in a preallocated
    basis of at most ``max_basis`` vectors; every ``check_every`` steps the
    Ritz pair of the tridiagonal comes from LAPACK, and convergence is
    declared when the implicit residual bound beta*|s_last| drops below
    tol relative to the operator scale.
    """
    if which not in ("max", "min", "abs"):
        raise ValueError("which must be max, min, or abs")
    if max_iter is None:
        max_iter = 10 * dim
    v = np.array(start, dtype=np.float64).reshape(-1)
    if v.shape != (dim,):
        raise ValueError("start vector has wrong length")
    if project is not None:
        v = project(v)

    m = min(max_basis, dim)
    basis = np.empty((m + 1, dim))
    alphas = np.empty(m)
    betas = np.empty(m)
    total_iters = 0
    best = IterativeResult(0.0, v.copy(), 0, math.inf, False)

    for _restart in range(max_restarts + 1):
        nv = math.sqrt(float(v @ v))
        if nv == 0.0:
            return IterativeResult(0.0, v, total_iters, 0.0, True)
        basis[0] = v / nv
        k = 0  # Lanczos steps taken since this restart
        while total_iters < max_iter and k < m:
            q = basis[k]
            w = matvec(q)
            if project is not None:
                w = project(w)
            a = float(q @ w)
            alphas[k] = a
            w = w - a * q
            if k > 0:
                w = w - betas[k - 1] * basis[k - 1]
            known = basis[: k + 1]
            w -= known.T @ (known @ w)
            w -= known.T @ (known @ w)
            b = math.sqrt(float(w @ w))
            total_iters += 1
            k += 1
            d, e = alphas[:k], betas[: k - 1]
            scale = max(1.0, float(np.max(np.abs(d))) + (float(np.max(np.abs(e))) if e.size else 0.0))
            if b <= 1e3 * _EPS * scale:
                # Krylov space is invariant: Ritz values are exact
                theta, s = _ritz_pair(d, e, which)
                return IterativeResult(theta, basis[:k].T @ s, total_iters, 0.0, True)
            betas[k - 1] = b
            basis[k] = w / b
            if k % check_every == 0 or k >= m:
                theta, s = _ritz_pair(d, e, which)
                resid = b * abs(float(s[-1]))
                if resid <= tol * scale:
                    return IterativeResult(theta, _unit(basis[:k].T @ s), total_iters, resid, True)
        # restart from the current best Ritz vector
        if k:
            theta, s = _ritz_pair(alphas[:k], betas[: k - 1], which)
            resid = betas[k - 1] * abs(float(s[-1]))
            v = _unit(basis[:k].T @ s)
            if resid < best.residual:
                best = IterativeResult(theta, v, total_iters, resid, False)
        if total_iters >= max_iter:
            break
    return best
