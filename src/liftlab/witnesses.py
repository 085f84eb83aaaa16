"""Explicit eigenvalue witnesses on lifts.

Three constructions give certified Rayleigh quotients: the planted-clique
vector (one entry high in each of s mutually adjacent fibres, the rest of
those fibres slightly negative), the bipartition vector exposing uneven edge
densities between chosen half-fibres, and the balanced extension of a top
eigenvector of an induced subgraph.  A fourth helper turns a realized
pattern's potency into lower bounds for the centered spectrum and for the
witness subgraph's top eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dyadic import DyadicBandVector, DyadicScale
from .errors import (
    BadHalfSizesError,
    DenseGuardError,
    LiftlabError,
    SubgraphTooLargeError,
    WitnessMismatchError,
)
from .graphs import DENSE_GUARD, Lift, LiftVector, _int64_items, induced_adjacency
from .patterns import Pattern, extract_pattern, potency
from .sampling import _check_clique_fibres
from .spectra import centered_rayleigh


@dataclass(frozen=True)
class WitnessResult:
    """A witness vector with its certified quotient.

    rayleigh is |<x, N x>| / |x|^2 for the centered operator N; claimed_bound
    is what the construction promises, and bound_met records whether the
    recomputed quotient clears it (up to 1e-9).
    """

    vector: LiftVector
    rayleigh: float
    claimed_bound: float
    bound_met: bool


def _result(lift: Lift, vector: LiftVector, claimed: float) -> WitnessResult:
    quotient = abs(centered_rayleigh(lift, vector))
    return WitnessResult(vector, quotient, claimed,
                         quotient >= claimed - 1e-9)


def clique_witness(lift: Lift, vertices: Sequence[tuple[int, int]]) -> WitnessResult:
    """Witness from s chosen vertices in distinct, pairwise-adjacent fibres.

    The vector is 1 on the chosen vertices and -1/(n-1) on the rest of their
    fibres, so each of those fibres sums to zero.  When the s vertices are
    pairwise matched (a planted clique), the quotient is exactly s - 1.
    """
    verts = _int64_items(vertices, LiftlabError, "clique vertices must be integer pairs", (2,))
    fibres, s = _check_clique_fibres(lift.base, verts[:, 0].tolist()), len(verts)
    # the induced subgraph checks the positions, and it is complete when the clique is present
    present = induced_adjacency(lift, verts.tolist()).sum() == s * (s - 1)
    n = lift.n
    if n < 2:
        raise LiftlabError("clique witness needs n >= 2 to balance its fibres")
    values = np.zeros((lift.h, n))
    values[fibres] = -1.0 / (n - 1)
    values[fibres, verts[:, 1]] = 1.0
    result = _result(lift, LiftVector(values), float(s - 1))
    if present and not result.bound_met:
        raise LiftlabError("planted clique failed to certify its quotient")
    return result


def _half_masks(lift: Lift, halves: Sequence[Iterable[int]]) -> np.ndarray:
    if len(halves) != lift.h:
        raise BadHalfSizesError(f"need one half per fibre, got {len(halves)}")
    if lift.n % 2:
        raise BadHalfSizesError("halves need an even fibre size")
    masks = np.zeros((lift.h, lift.n), dtype=bool)
    for i, half in enumerate(halves):
        idx = np.unique(_int64_items(half, BadHalfSizesError,
                                     f"fibre {i}: positions must be integers")).tolist()
        if len(idx) != lift.n // 2:
            raise BadHalfSizesError(
                f"fibre {i}: {len(idx)} chosen, expected {lift.n // 2}")
        if idx and (idx[0] < 0 or idx[-1] >= lift.n):
            raise BadHalfSizesError(f"fibre {i}: index out of range")
        masks[i, idx] = True
    return masks


def bipartition_witness(lift: Lift, halves: Sequence[Iterable[int]]) -> WitnessResult:
    """Unit witness +-1/sqrt(nh) split along per-fibre halves.

    The quotient equals (2/nh) * sum over base edges of (4 e(A_i, A_j) - n),
    where e counts matched pairs inside the halves.  The claimed bound is
    2 K sqrt(d) with K read off the worst edge surplus e - n/4.
    """
    masks = _half_masks(lift, halves)
    n, h, d = lift.n, lift.h, lift.base.d
    root = math.sqrt(n * h)
    values = np.where(masks, 1.0, -1.0) / root
    # matched pairs inside the halves, per base edge
    counts = [int(np.count_nonzero(masks[u] & masks[v][p])) for (u, v), p in lift.perms.items()]
    surplus = min(e - n / 4.0 for e in counts)
    strength = surplus * math.sqrt(d) / n
    result = _result(lift, LiftVector(values), 2.0 * strength * math.sqrt(d))
    expected = (2.0 / (n * h)) * sum(4 * e - n for e in counts)
    if abs(abs(expected) - result.rayleigh) > 1e-9 * max(1.0, abs(expected)):
        raise LiftlabError("bipartition quotient disagrees with the edge counts")
    return result


def embed_subgraph_witness(lift: Lift,
                           subgraph_vertices: Sequence[tuple[int, int]]) -> WitnessResult:
    """Balanced extension of an induced subgraph's top eigenvector.

    Takes the top eigenpair of the induced subgraph's dense adjacency from
    LAPACK (the quotient is quadratic in it, so its sign is irrelevant), then
    cancels each fibre sum t_i by spreading -t_i evenly over the fibre's
    outside vertices.  The resulting quotient is at least lambda(subgraph) - 7/2.
    """
    verts = _int64_items(subgraph_vertices, LiftlabError,
                         "subgraph vertices must be integer pairs", (2,))
    size = len(verts)
    if not size:
        raise LiftlabError("subgraph needs at least one vertex")
    n, h = lift.n, lift.h
    if size > n - h * math.sqrt(n):
        raise SubgraphTooLargeError(
            f"{size} vertices exceeds the balancing headroom n - h sqrt(n)")
    if size > DENSE_GUARD:
        raise DenseGuardError(f"{size} vertices exceeds the dense guard {DENSE_GUARD}")
    # ``induced_adjacency`` checks that the vertices lie in the lift and are distinct
    vals, vecs = np.linalg.eigh(induced_adjacency(lift, verts.tolist()))
    top_value, top_vector = float(vals[-1]), vecs[:, -1]
    values = np.zeros((h, n))
    inside = np.zeros((h, n), dtype=bool)
    values[verts[:, 0], verts[:, 1]] = top_vector
    inside[verts[:, 0], verts[:, 1]] = True
    for i in range(h):
        t = values[i, inside[i]].sum()
        outside = ~inside[i]
        values[i, outside] = -t / int(outside.sum())
    result = _result(lift, LiftVector(values), top_value - 3.5)
    if not result.bound_met:
        raise LiftlabError("embedded witness fell below its guaranteed quotient")
    return result


@dataclass(frozen=True)
class PatternWitnessBounds:
    """Lower bounds certified by a realized pattern.

    spectrum_bound applies to the centered operator's balanced extreme;
    subgraph_bound applies to the top adjacency eigenvalue of the subgraph
    induced on the union of the witness classes.
    """

    potency_value: float
    spectrum_bound: float
    subgraph_bound: float
    members: tuple[tuple[int, int], ...]


def pattern_witness_bound(lift: Lift, pattern: Pattern,
                          witnesses: Mapping[tuple[int, int], Sequence[int]]
                          ) -> PatternWitnessBounds:
    """Check that the witness classes realize the pattern, then convert its
    potency into eigenvalue lower bounds.

    With potency p' and alpha the total entry count, the centered extreme is
    at least 2 p' - 40 sqrt(d) and the witness subgraph's top eigenvalue is
    at least that minus alpha sqrt(10) / n.
    """
    scale = DyadicScale.of(lift)
    exps = np.zeros((scale.h, scale.n), dtype=np.int64)
    mask = np.zeros((scale.h, scale.n), dtype=bool)
    for key, positions in witnesses.items():
        fibre, exp = _int64_items([key], WitnessMismatchError,
                                  f"class {key!r} must be two integers", (2,))[0].tolist()
        if not 0 <= fibre < scale.h:
            raise WitnessMismatchError(f"class {key!r} out of range")
        positions = list(positions)
        ids = _int64_items(positions, WitnessMismatchError,
                           f"class {key!r}: positions must be integers").tolist()
        for given, j in zip(positions, ids):
            if not 0 <= j < scale.n:
                raise WitnessMismatchError(f"position {given} out of range")
            if mask[fibre, j]:
                raise WitnessMismatchError(
                    f"position ({fibre}, {j}) claimed by two classes")
            mask[fibre, j] = True
            exps[fibre, j] = exp
    try:
        vec = DyadicBandVector(scale, exps, mask)
    except LiftlabError as exc:
        raise WitnessMismatchError(f"witness classes form no valid vector: {exc}")
    realized, _ = extract_pattern(vec, lift)
    if realized != pattern:
        raise WitnessMismatchError("witness census does not reproduce the pattern")
    p = potency(pattern)
    alpha = pattern.profile.total
    bound = 2.0 * p - 40.0 * math.sqrt(scale.d)
    members = tuple((i, int(j)) for i in range(scale.h)
                    for j in np.nonzero(mask[i])[0])
    return PatternWitnessBounds(
        potency_value=p,
        spectrum_bound=bound,
        subgraph_bound=bound - alpha * math.sqrt(10.0) / scale.n,
        members=members,
    )
