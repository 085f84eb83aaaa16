"""Shared test helpers: independent dense oracles, the per-edge deviation
oracle, writers for the library's text readers, and hypothesis strategies.

The oracles here deliberately re-derive every operator entry by entry from
the neighbour relation, without calling the library's own vectorized
kernels, so library/oracle agreement is a two-route check.
"""

import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import liftlab
from liftlab.graphs import BaseGraph, Lift, LiftVector, complete_graph, cycle_graph
from liftlab.matching import MatchingSpec
from liftlab.patterns import LARGE_DEVIATION_CUTOFF, Pattern


def run_script(path: str, *args: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run a test file as a script in a fresh interpreter that imports this
    checkout's liftlab, under a 60-second limit, so a call that never returns
    fails the test instead of hanging the suite."""
    src = str(Path(liftlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, path, *args], input=stdin, text=True,
                          capture_output=True, timeout=60, env=env)


def peak_mb(build):
    """(build(), the most memory in MB that build held at once above what was
    allocated before it), counted by tracemalloc, which is deterministic."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


def oracle_adjacency(lift: Lift) -> np.ndarray:
    """Entry-by-entry (nh x nh) adjacency built from the matching relation."""
    n, h = lift.n, lift.h
    mat = np.zeros((n * h, n * h))
    for (u, v), p in lift.perms.items():
        for j in range(n):
            a = u * n + j
            b = v * n + int(p[j])
            mat[a, b] += 1.0
            mat[b, a] += 1.0
    return mat


def oracle_induced(lift: Lift, vertices) -> np.ndarray:
    """The rows and columns of ``oracle_adjacency`` for the (fibre, pos) list."""
    flat = [i * lift.n + j for i, j in vertices]
    return oracle_adjacency(lift)[np.ix_(flat, flat)]


def oracle_expected(lift: Lift) -> np.ndarray:
    """Expected adjacency: 1/n wherever the two fibres are adjacent in the base."""
    n, h = lift.n, lift.h
    mat = np.zeros((n * h, n * h))
    for i in range(h):
        for ip in range(h):
            if lift.base.are_adjacent(i, ip):
                for j in range(n):
                    for jp in range(n):
                        mat[i * n + j, ip * n + jp] = 1.0 / n
    return mat


def oracle_centered(lift: Lift) -> np.ndarray:
    return oracle_adjacency(lift) - oracle_expected(lift)


def neighbours(lift: Lift, i: int, j: int) -> list[tuple[int, int]]:
    """The (fibre, position) neighbours of vertex (i, j), read from the matchings."""
    out = []
    for (u, v), p in lift.perms.items():
        if u == i:
            out.append((v, int(p[j])))
        if v == i:
            out.append((u, int(np.flatnonzero(p == j)[0])))
    return out


def enumerate_lifts(base: BaseGraph, n: int):
    """Yield every n-lift of the base exactly once: all (n!)^m choices of
    one permutation per base edge, in lexicographic order."""
    all_perms = [np.array(p, dtype=np.int64) for p in itertools.permutations(range(n))]
    for combo in itertools.product(all_perms, repeat=len(base.edges)):
        yield Lift(base, n, dict(zip(base.edges, combo)))


def lift_key(lift: Lift) -> tuple:
    """A hashable identity of a lift, for counting distinct lifts."""
    return tuple((e, tuple(int(x) for x in lift.perms[e])) for e in lift.base.edges)


def is_balanced(x: LiftVector, tol: float = 1e-9) -> bool:
    """Every fibre sum is at most tol * max(1, |x|)."""
    scale = max(1.0, math.sqrt(x.norm_sq))
    return bool(np.all(np.abs(x.values.sum(axis=1)) <= tol * scale))


# --- the per-edge deviation oracle -------------------------------------------


def edge_key(u, v):
    """A class-graph edge as its sorted pair of class vertices."""
    return (u, v) if u <= v else (v, u)


def pattern_link(pattern: Pattern, u, v) -> int:
    """The matched-pair count between two classes, in either order, 0 if unlinked."""
    return pattern.links.get(edge_key(u, v), 0)


@dataclass(frozen=True)
class EdgeDeviation:
    """Deviation data for one class-graph edge, the per-edge definition that
    ``DeviationTable`` holds as arrays.

    expected is the mean matched-pair count between the two classes under a
    uniform matching; relative_gap is (observed / expected) - 1, with the
    convention that an edge touching an empty class has gap 1; term is the
    edge's signed contribution to potency.
    """

    edge: tuple
    expected: float
    relative_gap: float
    regime: str
    term: float


def deviation(edge, a: int, b: int, n: int, observed: int, weight: float) -> EdgeDeviation:
    """The deviation of an edge between classes of sizes a and b with the given
    observed count and weight product."""
    if a == 0 or b == 0:
        mu, gap = 0.0, 1.0
    else:
        mu = a * b / n
        gap = observed * n / (a * b) - 1.0
    regime = "large" if gap > LARGE_DEVIATION_CUTOFF else "small"
    return EdgeDeviation(edge, mu, gap, regime, weight * (observed - mu))


def edge_deviation(pattern: Pattern, u, v) -> EdgeDeviation:
    """``deviation`` of the class-graph edge (u, v) of a pattern."""
    counts = pattern.profile.counts
    weight = pattern.scale.weight(u[1]) * pattern.scale.weight(v[1])
    return deviation(edge_key(u, v), counts.get(u, 0), counts.get(v, 0),
                     pattern.scale.n, pattern_link(pattern, u, v), weight)


def is_rounded_vector(x: LiftVector) -> bool:
    """Every entry is 0 or +-2^e with e >= 0, and the squared norm is at most
    5nh, decided entry by entry in exact integers."""
    mags = [abs(v) for v in x.values.ravel().tolist() if v != 0.0]
    if any(m < 1.0 or math.frexp(m)[0] != 0.5 for m in mags):
        return False
    return sum(int(m) ** 2 for m in mags) <= 5 * x.values.size


def int_norm_sq(exponents: np.ndarray, nonzero: np.ndarray) -> int:
    """Exact squared norm (an integer) of a vector with entries +-2^e, e >= 0, from
    a bincount of its exponents: the oracle for ``DyadicScale.mass``."""
    live = exponents[nonzero]
    low = int(live.min()) if live.size else 0
    counts = np.bincount(live - low).tolist()
    return sum(c * 4 ** (low + e) for e, c in enumerate(counts) if c)


def two_pass_comparable_mask(ux: np.ndarray, uy: np.ndarray, d: int) -> np.ndarray:
    """The comparable region as two separate tests, a^2 < d b^2 and b^2 < d a^2,
    each with its own exact-rational pass over the pairs near its boundary."""
    a2 = ux * ux
    b2 = uy * uy
    pos = (ux > 0)[:, None] & (uy > 0)[None, :]

    def resolve(lo, hi, swap):
        less = lo < hi
        near = pos & (np.abs(lo - hi) <= 1e-9 * np.maximum(np.abs(lo), np.abs(hi)))
        for i, j in np.argwhere(near):
            a, b = Fraction(float(ux[i])), Fraction(float(uy[j]))
            less[i, j] = b * b < d * a * a if swap else a * a < d * b * b
        return less

    return (pos & resolve(a2[:, None], d * b2[None, :], swap=False)
            & resolve(b2[None, :], d * a2[:, None], swap=True))


def base_to_text(base: BaseGraph) -> str:
    """The text ``base_from_text`` reads: "h m", then one "u v" per edge."""
    lines = [f"{base.h} {len(base.edges)}"]
    lines += [f"{u} {v}" for (u, v) in base.edges]
    return "\n".join(lines) + "\n"


def matching_spec_to_text(spec: MatchingSpec) -> str:
    """The text ``matching_spec_from_text`` reads."""
    lines = ["matching-spec",
             f"n {spec.n}",
             "a " + " ".join(str(x) for x in spec.a),
             "b " + " ".join(str(x) for x in spec.b),
             "e " + " ".join(str(x) for row in spec.e for x in row)]
    return "\n".join(lines) + "\n"


def random_lift(base: BaseGraph, n: int, rng: np.random.Generator) -> Lift:
    """Draw a lift with independent uniform matchings, bypassing the sampler."""
    perms = {e: rng.permutation(n) for e in base.edges}
    return Lift(base, n, perms)


SMALL_BASES = [
    complete_graph(3),
    complete_graph(4),
    complete_graph(5),
    cycle_graph(4),
    cycle_graph(5),
    cycle_graph(6),
]


@st.composite
def small_lifts(draw, max_n=6):
    base = draw(st.sampled_from(SMALL_BASES))
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_lift(base, n, np.random.default_rng(seed))


@st.composite
def lift_with_vector(draw, max_n=6):
    lift = draw(small_lifts(max_n=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    vals = np.random.default_rng(seed).normal(size=(lift.h, lift.n))
    return lift, vals
