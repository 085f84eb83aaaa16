"""Spectra of lifted graphs.

The adjacency operator of a lift splits along two invariant subspaces:
vectors constant on every fibre (carrying a copy of the base spectrum)
and vectors balanced on every fibre. ``new_spectrum`` computes the
balanced part exactly by restricting to an explicit orthonormal basis of
the balanced subspace; ``lambda_star`` estimates its extreme modulus at
scale with thick-restart Lanczos on the centered operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import lanczos_extreme, symmetric_eigenvalues
from .errors import ConfigError, NotConvergedError
from .graphs import (
    Lift,
    LiftVector,
    _centered_raw,
    apply_adjacency,
    apply_centered,
    balance,
    dense_operator,
)
from .sampling import SeededRng


@dataclass(frozen=True)
class SpectralReport:
    """Result of an extreme-eigenvalue computation on the centered operator."""

    lambda_top: float
    lambda_star: float
    method: str
    iterations: int
    residual: float
    witness: LiftVector
    converged: bool = True

    def require_converged(self) -> "SpectralReport":
        """This report, or NotConvergedError if the solve missed its tolerance."""
        if not self.converged:
            raise NotConvergedError(f"lambda_star did not converge: residual {self.residual:.3g} "
                                    f"after {self.iterations} iterations")
        return self


def centered_rayleigh(lift: Lift, x: LiftVector) -> float:
    """Signed Rayleigh quotient of the centered operator at x."""
    if x.norm_sq == 0.0:
        return 0.0
    return float(np.vdot(x.values, apply_centered(lift, x).values)) / x.norm_sq


def adjacency_rayleigh(lift: Lift, x: LiftVector) -> float:
    if x.norm_sq == 0.0:
        return 0.0
    return float(np.vdot(x.values, apply_adjacency(lift, x).values)) / x.norm_sq


def dense_spectrum(lift: Lift, kind: str = "adjacency") -> np.ndarray:
    """All nh eigenvalues of the chosen operator, sorted descending."""
    return symmetric_eigenvalues(dense_operator(lift, kind))


def balanced_basis(n: int) -> np.ndarray:
    """Orthonormal (n, n-1) basis of the hyperplane orthogonal to all-ones.

    Column p-1 has value 1/sqrt(p(p+1)) on the first p coordinates and
    -p/sqrt(p(p+1)) on coordinate p.
    """
    w = np.zeros((n, n - 1))
    for p in range(1, n):
        c = 1.0 / math.sqrt(p * (p + 1))
        w[:p, p - 1] = c
        w[p, p - 1] = -p * c
    return w


def new_spectrum(lift: Lift) -> np.ndarray:
    """The (n-1)h eigenvalues of the adjacency operator on balanced vectors.

    Restricts the dense adjacency to a per-fibre orthonormal balanced
    basis; on that subspace the adjacency and centered operators agree.
    Sorted descending.
    """
    n, h = lift.n, lift.h
    mat = dense_operator(lift, "adjacency")
    if n == 1:
        return np.zeros(0)
    w = balanced_basis(n)
    blocks = mat.reshape(h, n, h, n)
    restricted = np.einsum("ajbk,jp,kq->apbq", blocks, w, w, optimize=True)
    restricted = restricted.reshape(h * (n - 1), h * (n - 1))
    restricted = (restricted + restricted.T) / 2.0
    return symmetric_eigenvalues(restricted)


def lambda_star(lift: Lift, tol: float = 1e-8, rng: SeededRng | None = None,
                method: str = "auto") -> SpectralReport:
    """Largest-modulus eigenvalue of the centered operator on balanced vectors.

    The returned value is the honestly recomputed Rayleigh quotient of the
    witness, so it is always a certified lower bound; convergence of the
    iteration makes it accurate to roughly tol as an estimate of the true
    extreme. ``method`` is "auto", "iterative", or "dense" (dense requires
    nh within the dense guard). The iteration stops after 10nh steps.
    """
    return _lambda_star(lift, tol, rng, method)[0]


def _lambda_star(lift: Lift, tol: float, rng: SeededRng | None,
                 method: str) -> tuple[SpectralReport, np.ndarray | None]:
    """``lambda_star``'s report, and the balanced spectrum when the dense path computed it."""
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, not {tol!r}")
    if method not in ("auto", "dense", "iterative"):
        raise ConfigError(f"method must be auto, dense or iterative, not {method!r}")
    n, h = lift.n, lift.h
    lam_top = adjacency_rayleigh(lift, LiftVector(np.ones((h, n))))
    if rng is None:
        rng = SeededRng(0, 991)
    if n == 1:
        return SpectralReport(lam_top, 0.0, "iterative", 0, 0.0,
                              LiftVector(np.zeros((h, 1))), True), None

    if method == "dense" or (method == "auto" and n * h <= 600):
        vals = new_spectrum(lift)
        theta = float(vals[np.argmax(np.abs(vals))])
        witness = _dense_witness(lift, theta)
        ray = centered_rayleigh(lift, witness)
        resid_vec = apply_centered(lift, witness).values - theta * witness.values
        resid = float(np.linalg.norm(resid_vec)) / math.sqrt(witness.norm_sq)
        return SpectralReport(lam_top, abs(ray), "dense", 1, resid, witness, True), vals

    def matvec(flat: np.ndarray) -> np.ndarray:
        return _centered_raw(lift, flat.reshape(h, n)).reshape(-1)

    # C is zero on fibre-constant vectors: rounding drift off a balanced start never grows
    start = balance(LiftVector(rng.generator(17).normal(size=(h, n))))
    out = lanczos_extreme(matvec, h * n, start.flat(), which="abs", tol=tol)
    witness = LiftVector(out.vector.reshape(h, n))
    ray = centered_rayleigh(lift, witness)
    return SpectralReport(lam_top, abs(ray), "iterative", out.iterations,
                          out.residual, witness, out.converged), None


def _dense_witness(lift: Lift, theta: float) -> LiftVector:
    """Eigenvector of the centered operator for the eigenvalue nearest theta,
    by shifted inverse iteration on the dense matrix from a balanced start."""
    n, h = lift.n, lift.h
    mat = dense_operator(lift, "centered")
    dim = n * h
    scale = max(1.0, abs(theta))
    shift = theta + 1e-9 * scale
    x = balance(LiftVector(np.random.default_rng(7).normal(size=(h, n)))).flat()
    a = mat - shift * np.eye(dim)
    for _ in range(3):
        x = np.linalg.solve(a, x)
        nx = np.linalg.norm(x)
        if nx == 0.0 or not np.isfinite(nx):
            x = balance(LiftVector(np.random.default_rng(8).normal(size=(h, n)))).flat()
            nx = np.linalg.norm(x)
        x = x / nx
    return LiftVector(x.reshape(h, n))
