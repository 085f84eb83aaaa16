"""The two workloads: which inputs each one runs, and how a seed picks them.

Every input kind has a pool of instances (cell seeds 1..8 for a sweep
cell, pool indices 0..7 for a census pattern). The workload seed picks
distinct instances of each kind, as many as the kind's draw count, so the
same seed gives the same inputs, and every input a seed can pick has a
recorded reference output.

A round over a workload's inputs takes about 7-13 seconds, so a 50-second
run repeats every input three to seven times. The census draws five of
the eight K_80 patterns, whose cost varies from instance to instance, and
its median input is the middle one of those five, so it does not hinge on
one draw. Two inputs are
fixed (a pool of one), so that what they set does not move with the
seed: the spectrum-only k5 n=3000 cell (cell seed 1), which sets
peak_rss_mb, and the K_452 simplex pattern, which takes more than half of
every census round.

Why these inputs:

sweep           ``run_experiment`` cells of two kinds. Four run all stages
                at nh = 600, the ``auto`` dense limit, where the dense
                spectrum (Householder, QL and the witness solves) is most of
                the cell and Lanczos never runs. Three have sparse bases and
                long fibres (nh 4000-15000), where Lanczos with a
                full-reorthogonalised basis is most of the cell; the
                spectrum-only k5 n=3000 cell sets the memory peak.
reduce-census   reduce_pattern and reduce_general(level=41) on class-graph
                patterns: the K_452 simplex pattern, which keeps every
                class, and random multi-exponent patterns on K_60 and K_80
                whose greedy loop removes classes. patterns does nearly all
                the work, and no spectrum is computed.

Each list starts with its cheapest kind, whose first item doubles as the
warm-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import digest

POOL_SIZE = 8
ALL_STAGES = ("spectrum", "certificate", "reduction", "witnesses")
CENSUS_LEVEL = 41.0
SIMPLEX_N = 1000
RANDOM_N = 1000

# (input kind, draws per run, pool size); a sweep kind is (base, n, stages)
SWEEPS = {
    "sweep": (
        (("k4", 150, ALL_STAGES), 1, POOL_SIZE), (("k5", 120, ALL_STAGES), 1, POOL_SIZE),
        (("c6", 100, ALL_STAGES), 1, POOL_SIZE), (("petersen", 60, ALL_STAGES), 1, POOL_SIZE),
        (("k4", 1000, ALL_STAGES), 1, POOL_SIZE), (("petersen", 500, ALL_STAGES), 1, POOL_SIZE),
        (("k5", 3000, ("spectrum",)), 1, 1),
    ),
}

# a census kind is ("random", h, exponents per fibre) or ("simplex", smallest h, 0)
CENSUS = (
    (("random", 60, 3), 1, POOL_SIZE), (("random", 80, 3), 5, POOL_SIZE),
    (("simplex", 452, 0), 1, 1),
)

WORKLOADS = (*SWEEPS, "reduce-census")

# lifts up to this many vertices take the dense path under method "auto";
# their lambda_star is also checked against eigvalsh
DENSE_LIMIT = 600


@dataclass(frozen=True)
class Item:
    """One unit of work. ``run`` returns the raw library output; ``lift`` is
    set when the result gets the dense cross-check."""

    key: str
    kind: str
    run: Callable[[], object]
    root: str
    lift: object = None


def kinds(name: str):
    return SWEEPS[name] if name in SWEEPS else CENSUS


def picks(name: str, seed: int) -> list[tuple[object, int]]:
    """(input kind, pool index) for every item of the workload, drawn from
    the workload seed, distinct within a kind."""
    rng = np.random.default_rng([20101218, seed])
    return [(spec, int(index)) for spec, draws, pool in kinds(name)
            for index in rng.choice(pool, size=draws, replace=False)]


def sweep_key(base: str, n: int, stages, cell_seed: int) -> str:
    return f"{base}:n={n}:{'+'.join(stages)}:seed={cell_seed}"


def census_key(spec, index: int) -> str:
    shape, h, k = spec
    if shape == "simplex":
        return f"simplex:h={h + index}:n={SIMPLEX_N}"
    return f"random:h={h}:k={k}:i={index}"


def simplex_pattern(liftlab, h: int, n: int):
    """Singleton classes on every fibre of K_h, each pair linked once: every
    link sits n-fold above its expectation, so all deviations are large and,
    for h above about 400, the level-20 reduction keeps every class."""
    scale = liftlab.DyadicScale(n, h, h - 1)
    profile = liftlab.ClassProfile(scale, {(i, 0): 1 for i in range(h)})
    links = {((i, 0), (j, 0)): 1 for i, j in itertools.combinations(range(h), 2)}
    return liftlab.Pattern(liftlab.complete_graph(h), profile, links)


def random_pattern(liftlab, h: int, k: int, n: int, rng: np.random.Generator):
    """A realisable multi-exponent pattern on K_h.

    Exponents 0..k-1 on every fibre. A random 70% of the fibres form a core
    of small classes whose links split each class across the other core
    fibre's classes in proportion to their sizes (deviations far above
    expectation); the other fibres hold larger classes with Poisson link
    counts around expectation. Each fibre's entries stay within n and its
    squared norm within 10n, as a band vector's census must.
    """
    d = h - 1
    core = set(rng.choice(h, size=int(0.7 * h), replace=False).tolist())
    counts = {}
    for fibre in range(h):
        for exp in range(k):
            if fibre in core:
                counts[(fibre, exp)] = int(rng.integers(1, 4))
            elif rng.random() < 0.7:
                cap = min(n // (2 * k), 10 * n // (2 * k * 4 ** exp))
                counts[(fibre, exp)] = int(rng.integers(1, max(2, cap)))
    fibre_total: dict[int, int] = {}
    for (fibre, _), count in counts.items():
        fibre_total[fibre] = fibre_total.get(fibre, 0) + count
    links = {}
    for u, v in itertools.combinations(sorted(counts), 2):
        if u[0] == v[0] or 4 ** abs(u[1] - v[1]) >= d:
            continue
        a, b = counts[u], counts[v]
        if u[0] in core and v[0] in core:
            value = max(1, round(a * b / fibre_total[v[0]]))
        else:
            value = int(rng.poisson(a * b / n))
        value = min(a, b, value)
        if value:
            links[(u, v)] = value
    scale = liftlab.DyadicScale(n, h, d)
    return liftlab.Pattern(liftlab.complete_graph(h), liftlab.ClassProfile(scale, counts), links)


def census_pattern(liftlab, spec, index: int):
    shape, h, k = spec
    if shape == "simplex":
        return simplex_pattern(liftlab, h + index, SIMPLEX_N)
    rng = np.random.default_rng([20101218, h, k, index])
    return random_pattern(liftlab, h, k, RANDOM_N, rng)


def sweep_item(liftlab, base_name: str, n: int, stages, cell_seed: int) -> Item:
    base = liftlab.base_from_name(base_name)
    config = liftlab.ExperimentConfig(base, (n,), (cell_seed,), stages=tuple(stages))
    lift = (liftlab.sample_lift(base, n, liftlab.SeededRng(cell_seed))
            if n * base.h <= DENSE_LIMIT else None)
    return Item(sweep_key(base_name, n, stages, cell_seed), "sweep",
                lambda: liftlab.experiment.run_experiment(config),
                "experiment.run_experiment", lift)


def census_item(liftlab, spec, index: int) -> Item:
    pattern = census_pattern(liftlab, spec, index)
    patterns = liftlab.patterns

    def run():
        # looked up on the module at call time so the traced run sees them
        return (patterns.reduce_pattern(pattern),
                patterns.reduce_general(pattern, level=CENSUS_LEVEL))

    return Item(census_key(spec, index), "census", run, "census.item")


def instances(name: str):
    """Every (kind, pool index) the workload can draw, in list order."""
    return [(spec, index) for spec, _, pool in kinds(name) for index in range(pool)]


def make_item(liftlab, name: str, spec, index: int) -> Item:
    if name in SWEEPS:
        base_name, n, stages = spec
        return sweep_item(liftlab, base_name, n, stages, index + 1)
    return census_item(liftlab, spec, index)


def build(liftlab, name: str, seed: int) -> tuple[Item, ...]:
    """The workload's fixed input set for this seed."""
    return tuple(make_item(liftlab, name, spec, index) for spec, index in picks(name, seed))


def outcome(liftlab, item: Item, out) -> dict:
    """The comparable part of an item's output."""
    if item.kind == "sweep":
        columns = liftlab.experiment.CSV_COLUMNS
        keep = [i for i, name in enumerate(columns) if name != "wall_ms"]
        (row,) = out.rows
        values = row.csv_values()
        return {"row": ",".join(values[i] for i in keep),
                "failures": list(out.failures),
                "lambda_star": row.lambda_star}
    to_text = liftlab.patterns.reduction_to_text
    pattern_report, general_report = out
    return {"reduce_pattern": digest(to_text(pattern_report)),
            "reduce_general": digest(to_text(general_report))}
