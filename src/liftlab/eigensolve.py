"""Symmetric eigensolvers.

Dense path: LAPACK (``numpy.linalg.eigvalsh``) gives the eigenvalues.
Householder reduction and implicit-shift QL, its sweeps on Python floats,
serve only the dense path's pick of an end on a repeated extreme modulus
(``spectra._theta``), which takes their bits. Householder writes each
updated trailing block contiguously into one of two swapped n * n buffers,
with the roundings of a strided in-place update of the input with -0.0 made
+0.0. Iterative path: thick-restart Lanczos in a fixed basis of 48 vectors,
driven by a caller-supplied matvec, with partial reorthogonalization: an
estimate of the basis's loss of orthogonality decides when a step runs the
full Gram-Schmidt pass, which takes a second pass only when the DGKS test
asks for it; the Ritz pairs of the small projected matrix come from LAPACK
(``numpy.linalg.eigh``), and the returned Ritz vector is signed by its
start, <x, start> >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError
from .graphs import _is_int, _is_real

_EPS = float(np.finfo(np.float64).eps)  # a Python float: QL's scan multiplies by it per entry
# Daniel, Gragg, Kaufman & Stewart (Math. Comp. 30, 1976): a second Gram-Schmidt
# pass is needed only when the first left less than this fraction of the norm.
_DGKS = 1.0 / math.sqrt(2.0)
# Lanczos runs the full pass once an estimated inner product passes this level.
# At Simon's sqrt(eps), the coefficients a full pass drops from the Lanczos
# relation (omega * beta) spoiled Ritz vectors next to a closing Krylov space.
_OMEGA_MAX = _EPS ** 0.75


def householder_tridiagonalize(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    Returns (diagonal, subdiagonal); the input is not modified. Only the
    eigenvalue-relevant data is kept (reflectors are not accumulated).

    Step k reads the trailing block a[k:, k:], held as a contiguous array,
    and writes the updated a[k+1:, k+1:] contiguously into a second buffer of
    n * n floats; the two buffers swap roles each step. Every entry takes the
    two roundings (s - 2 v_i q_j) - 2 q_i v_j, in that order. ``einsum``
    writes +0.0 where the product is -0.0, so the private copy of the input
    starts with every -0.0 made +0.0; no -0.0 arises after that, and the
    result has the bits of a strided in-place update of ``mat + 0.0``.
    """
    cur = np.array(mat, dtype=np.float64, order="C")
    cur += 0.0  # -0.0 -> +0.0, the only value that adding 0.0 changes
    n = cur.shape[0]
    spare = np.empty(n * n)  # receives each next block
    d, e = np.empty(n), np.zeros(max(n - 1, 0))
    for k in range(n - 2):
        d[k] = cur[0, 0]
        x, sub = cur[1:, 0], cur[1:, 1:]
        nxt = spare[: sub.size].reshape(sub.shape)
        spare = cur.reshape(-1)  # free once sub is read
        nx = math.sqrt(float(x @ x))
        if nx <= _EPS * max(1.0, abs(d[k])):
            nxt[...] = sub
        else:
            alpha = e[k] = -math.copysign(nx, x[0]) if x[0] != 0.0 else -nx
            v = x.copy()
            v[0] -= alpha
            v /= math.sqrt(float(v @ v))  # |v| >= |v[0]| >= nx > 0
            w = sub @ v
            q = w - v * float(v @ w)
            # doubling is exact, so (2v) q^T has the bits of 2 (v q^T)
            np.subtract(sub, np.einsum("i,j->ij", 2.0 * v, q, out=nxt), out=nxt)
            nxt -= np.einsum("i,j->ij", 2.0 * q, v, out=spare[: sub.size].reshape(sub.shape))
        cur = nxt
    tail = min(n, 2)
    d[n - tail:], e[n - tail:] = np.diag(cur), np.diag(cur, -1)
    return d, e


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted descending.

    Implicit-shift QL with per-eigenvalue iteration caps; accurate to
    machine-level relative error for well-scaled inputs. The sweeps run on
    Python floats: the same IEEE bits as numpy scalars, at a third the cost.
    """
    d = np.array(diag, dtype=np.float64)
    n = d.size
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
    """All eigenvalues of a dense symmetric matrix, sorted descending (LAPACK)."""
    return np.linalg.eigvalsh(mat)[::-1]


# ---------------------------------------------------------------------------
# Thick-restart Lanczos with partial reorthogonalization


@dataclass
class IterativeResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    restarts: int
    full_passes: int


def _ritz_pairs(t: np.ndarray, which: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of the projected matrix, as LAPACK signs them, and the index of
    the selected one."""
    vals, vecs = np.linalg.eigh(t)
    top = which == "max" or (which == "abs" and abs(vals[-1]) >= abs(vals[0]))
    return vals, vecs, vals.size - 1 if top else 0


def lanczos_extreme(matvec, dim: int, start: np.ndarray, which: str = "abs",
                    tol: float = 1e-8, max_iter: int | None = None,
                    max_basis: int = 48) -> IterativeResult:
    """Extreme eigenpair of a symmetric operator given only matvec.

    ``which`` selects "max" (most positive), "min" (most negative), or
    "abs" (largest modulus). The Krylov space stays in any invariant
    subspace of the operator that holds the start vector, so a start vector
    taken in such a subspace restricts the whole computation to it.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22(2),
    2000) in a basis of m = ``max_basis`` vectors, with partial
    reorthogonalization (Simon, Math. Comp. 42, 1984): each step updates the
    estimate omega of its new vector's inner products with the basis,
    beta_k omega_{k+1,j} = sum_i t_ij omega_ki - t_ik omega_ij over the
    projected matrix t, plus a rounding term eps sqrt(dim) scale of omega's
    sign. The full classical Gram-Schmidt pass (with a second only when the
    first left less than 1/sqrt(2) of the norm: the DGKS test) runs when an
    estimate passes eps**0.75, on the step after, and on a nearly closed
    Krylov space; ``full_passes`` counts those steps. A full basis keeps its
    m // 3 Ritz vectors nearest the wanted end, mapping their estimates as
    their vectors, and continues from the last Lanczos vector, so the
    projected matrix is diagonal on the kept block, with an arrowhead row
    coupling it to that vector, then tridiagonal. Every 8 steps LAPACK
    gives its Ritz pair, converged once the implicit residual
    beta*|s_last| drops below tol times the scale max|alpha| + max beta over
    all steps. After ``max_iter`` steps the current Ritz pair is returned,
    unconverged. The returned vector lies on the start's side, <x, start> >= 0,
    so one start gives one vector: from -start the same steps return -x.
    """
    if which not in ("max", "min", "abs"):
        raise ValueError("which must be max, min, or abs")
    if not (_is_int(max_basis) and max_basis >= 2):
        raise ValueError(f"max_basis must be an integer of at least 2, not {max_basis!r}")
    if not (_is_real(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    if max_iter is None:
        max_iter = 10 * dim
    elif not (_is_int(max_iter) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer of at least 1, not {max_iter!r}")
    v = np.array(start, dtype=np.float64).reshape(-1)
    if v.shape != (dim,):
        raise ValueError("start vector has wrong length")
    nv = math.sqrt(float(v @ v))
    if nv == 0.0:
        return IterativeResult(0.0, v, 0, 0.0, True, 0, 0)

    m = min(max_basis, dim)
    keep = max(1, m // 3)
    basis = np.empty((m + 1, dim))
    basis[0] = v / nv
    t = np.zeros((m, m))  # projected matrix basis[:k] A basis[:k]^T
    om = np.zeros((m + 1, m + 1))  # Simon's omega: the estimate of basis basis^T - I
    noise = _EPS * math.sqrt(dim)  # one step's rounding, in units of scale
    k = total_iters = restarts = full_passes = 0  # k: basis vectors before this step
    amax = bmax = 0.0
    lost = False  # the last step's estimate passed _OMEGA_MAX
    while True:
        q = basis[k]
        w = matvec(q)
        a = float(q @ w)
        t[k, k] = a
        w = w - a * q
        if k:  # right after a restart, basis[keep] couples to every kept vector
            lo = 0 if restarts and k == keep else k - 1
            w -= t[lo:k, k] @ basis[lo:k]
        amax = max(amax, abs(a))
        scale = max(1.0, amax + bmax)
        b = math.sqrt(float(w @ w))
        full, lost = lost or b <= 1e3 * _EPS * scale, False  # pairing; a closing Krylov space
        om[k + 1, k] = om[k, k + 1] = _EPS
        if k and not full:  # beta_k omega_{k+1,j} = sum_i t_ij omega_ki - t_ik omega_ij
            est = om[k, :k + 1] @ t[:k + 1, :k] - t[lo:k + 1, k] @ om[lo:k + 1, :k]
            est += np.copysign(noise * scale, est)
            est /= b
            om[k + 1, :k] = om[:k, k + 1] = est
            full = lost = float(np.abs(est).max()) > _OMEGA_MAX
        if full:
            known = basis[: k + 1]
            w -= known.T @ (known @ w)
            before, b = b, math.sqrt(float(w @ w))
            if b < _DGKS * before:  # cancellation: one more Gram-Schmidt pass
                w -= known.T @ (known @ w)
                b = math.sqrt(float(w @ w))
            om[k + 1, :k] = om[:k, k + 1] = _EPS
            full_passes += 1
        total_iters += 1
        k += 1
        exact = b <= 1e3 * _EPS * scale  # the Krylov space is invariant
        if not exact:
            bmax = max(bmax, b)
            basis[k] = w / b
            if k < m:
                t[k, k - 1] = t[k - 1, k] = b
        if exact or k % 8 == 0 or k == m or total_iters >= max_iter:
            vals, vecs, i = _ritz_pairs(t[:k, :k], which)
            resid = 0.0 if exact else b * abs(float(vecs[-1, i]))
            if resid <= tol * scale or total_iters >= max_iter:
                x = basis[:k].T @ vecs[:, i]
                x /= math.copysign(math.sqrt(float(x @ x)), float(x @ v))  # the start's side
                return IterativeResult(float(vals[i]), x, total_iters,
                                       resid, resid <= tol * scale, restarts, full_passes)
            if k == m:  # thick restart: keep the Ritz vectors nearest the wanted end
                near = np.abs(vals) if which == "abs" else vals if which == "max" else -vals
                kept = np.argsort(near, kind="stable")[-keep:]
                s = vecs[:, kept]
                basis[:keep] = s.T @ basis[:m]
                basis[keep] = basis[m]
                om[:keep, :keep] = s.T @ om[:m, :m] @ s
                om[keep, :keep] = om[:keep, keep] = om[m, :m] @ s
                t.fill(0.0)
                t[:keep, :keep] = np.diag(vals[kept])
                t[keep, :keep] = t[:keep, keep] = b * s[-1]
                k = keep
                restarts += 1
