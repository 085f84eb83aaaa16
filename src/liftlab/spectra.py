"""Spectra of lifted graphs.

The adjacency operator of a lift splits along two invariant subspaces:
vectors constant on every fibre (carrying a copy of the base spectrum)
and vectors balanced on every fibre. The centered operator is zero on the
first and the adjacency on the second, so ``new_spectrum`` (the balanced
part) is its spectrum without h kernel zeros. ``lambda_star`` takes its
extreme modulus and witness from one thick-restart Lanczos solve on the
centered operator, from one start per lift, aimed at the end of extreme modulus,
the top end on a +-theta tie; only the dense path ("auto": bipartite bases alone)
on a bipartite base, whose tie is certain, takes the end that QL picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import (_top_end, householder_tridiagonalize, lanczos_extreme,
                         symmetric_eigenvalues, tridiagonal_eigenvalues)
from .errors import ConfigError, NotConvergedError
from .graphs import (
    BaseGraph,
    Lift,
    LiftVector,
    _centered_raw,
    _is_real,
    apply_centered,
    balance,
    dense_operator,
)


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
    """The (n-1)h eigenvalues of the adjacency operator on balanced vectors, sorted
    descending: LAPACK's values of the centered operator, which agrees with the
    adjacency there, without its h smallest moduli (the fibre-constant kernel)."""
    vals = dense_spectrum(lift, "centered")
    return np.delete(vals, np.argsort(np.abs(vals), kind="stable")[:lift.h])


def _tie_end(lift: Lift) -> str:
    """The end, "max" or "min", that the dense path aims Lanczos at on a bipartite base,
    whose new spectrum has a certain +-theta tie: the recorded c6 rows hang on the end
    that Householder + QL pick on the adjacency restricted to a per-fibre orthonormal
    balanced basis."""
    n, h, w = lift.n, lift.h, balanced_basis(lift.n)
    blocks = dense_operator(lift, "adjacency").reshape(h, n, h, n)
    restricted = np.einsum("ajbk,jp,kq->apbq", blocks, w, w, optimize=True).reshape(h * (n - 1), -1)
    vals = tridiagonal_eigenvalues(*householder_tridiagonalize((restricted + restricted.T) / 2.0))
    return "max" if vals[np.argmax(np.abs(vals))] > 0 else "min"


def _bipartite(base: BaseGraph) -> bool:
    """Whether the base 2-colours, by breadth-first search. Then D, +-1 on each fibre by
    its colour, keeps the balanced vectors and DCD = -C: every new spectrum is symmetric."""
    neighbours, colour = base.neighbour_index().T.tolist(), [-1] * base.h
    for root in range(base.h):
        if colour[root] < 0:
            colour[root], queue = 0, [root]
            for u in queue:  # grows as it is read
                for v in neighbours[u]:
                    if colour[v] == colour[u]:
                        return False
                    if colour[v] < 0:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
    return True


def lambda_star(lift: Lift, tol: float = 1e-8, method: str = "auto") -> SpectralReport:
    """Largest-modulus eigenvalue of the centered operator on balanced vectors.

    The returned value is the honestly recomputed Rayleigh quotient of the
    witness, so it is always a certified lower bound; convergence of the
    iteration makes it accurate to roughly tol as an estimate of the true
    extreme. ``method`` is "auto", "iterative", or "dense" (dense requires
    nh within the dense guard); "auto" is "dense" up to nh 600 on a bipartite
    base alone. The iteration stops after 10nh steps.

    Both methods take the witness from one Lanczos solve, whose steps the report
    carries, started from one vector per lift: a balanced ``default_rng(7)``
    draw. "dense" aims at ``eigensolve._top_end`` of ``new_spectrum``'s LAPACK
    values, "iterative" at that of its Ritz values; on a bipartite base, whose
    +-theta tie is certain, "dense" takes QL's end and no LAPACK spectrum. The
    witness is that start's projection onto the eigenspace of the value found
    (Parlett, 1980), on the start's side: <witness, start> >= 0. So on a simple
    extreme both methods return one witness. The report's residual is the
    witness's own, |Cx - rho x| / |x| at its Rayleigh quotient rho, from the one
    matvec that gives rho; ``converged`` needs both it and Lanczos's implicit
    residual within tol times the solver's scale.
    """
    return _lambda_star(lift, tol, method)[0]


def _check_tol(tol) -> None:
    """Raise ConfigError unless the solver tolerance is a positive finite number, not a bool."""
    if not (_is_real(tol) and tol > 0.0):
        raise ConfigError(f"tol must be positive and finite, not {tol!r}")


def _lambda_star(lift: Lift, tol: float, method: str) -> tuple[SpectralReport, np.ndarray | None]:
    """``lambda_star``'s report, and the balanced spectrum when the dense path computed it."""
    _check_tol(tol)
    if method not in ("auto", "dense", "iterative"):
        raise ConfigError(f"method must be auto, dense or iterative, not {method!r}")
    n, h = lift.n, lift.h
    lam_top = float(lift.d)  # the Rayleigh quotient of all-ones on a d-regular lift
    # "auto" is dense only where a +-theta tie is certain, on a bipartite base
    bipartite = (method == "dense" or method == "auto" and n * h <= 600) and _bipartite(lift.base)
    label = "dense" if method == "dense" or bipartite else "iterative"
    if n == 1:
        return SpectralReport(lam_top, 0.0, label, 0, 0.0,
                              LiftVector(np.zeros((h, 1))), True), None

    vals, which = None, "abs"
    if bipartite:
        which = _tie_end(lift)
    elif label == "dense":
        vals = new_spectrum(lift)
        which = _top_end(vals[-1], vals[0])
    # C is zero on fibre-constant vectors: rounding drift off a balanced start never grows
    start = balance(LiftVector(np.random.default_rng(7).normal(size=(h, n))))
    out = lanczos_extreme(lambda flat: _centered_raw(lift, flat.reshape(h, n)).reshape(-1),
                          h * n, start.flat(), which=which, tol=tol)
    witness = LiftVector(out.vector.reshape(h, n))
    image = _centered_raw(lift, witness.values)  # one matvec: the quotient and its residual
    ray = float(np.vdot(witness.values, image)) / witness.norm_sq  # as centered_rayleigh
    residual = math.sqrt(LiftVector(image - ray * witness.values).norm_sq / witness.norm_sq)
    return SpectralReport(lam_top, abs(ray), label, out.iterations, residual, witness,
                          out.converged and residual <= tol * out.scale), vals
