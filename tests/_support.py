"""Shared test helpers: independent dense oracles and hypothesis strategies.

The oracles here deliberately re-derive every operator entry by entry from
the neighbour relation, without calling the library's own vectorized
kernels, so library/oracle agreement is a two-route check.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import liftlab
from liftlab.graphs import BaseGraph, Lift, complete_graph, cycle_graph


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
