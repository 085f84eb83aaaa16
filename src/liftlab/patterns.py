"""Weight-class patterns: census data describing how a dyadic vector sits on
a lift, and the reduction machinery that keeps only its improbable core.

A pattern records, for each (fibre, weight-exponent) class, how many entries
the class holds, and for each pair of classes across a base edge, how many
matched pairs join them.  Potency measures how far those joint counts deviate
from what uniformly random matchings would give, weighted by entry products.
The greedy reductions trim the class graph down to a subset on which every
class contributes enough deviation to be individually unlikely. A pattern
keeps its links also as index arrays; each public call builds the class
graph and deviation table from them once, as numpy arrays over the sorted
classes, and passes them along. Sums run in the order of a loop over each
class's sorted neighbours, or equal math.fsum (``_fsums``: exact bin sums, no
lists), so every result has the bits a loop over the class-graph edges gives; the
greedy scan drops, in verified batches, what a scan of one class per turn drops.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .dyadic import DyadicBandVector, DyadicScale
from .errors import (
    ConfigError,
    DeviationDomainError,
    DimensionMismatchError,
    InvalidPatternError,
    LiftlabError,
    NotBandVectorError,
    TooLargeError,
)
from .graphs import (BaseGraph, Lift, _check_count, _int64_items, _is_real, _read_int64s,
                     complete_graph, cycle_graph)

ClassVertex = tuple[int, int]  # (fibre, weight exponent)
ClassEdge = tuple[ClassVertex, ClassVertex]

# Deviations above this cutoff count as "large"; at or below, "small".
LARGE_DEVIATION_CUTOFF = math.e ** 2 - 1.0


_LINK_ERRORS = ("negative link count at {}", "duplicate link {}", "link {} touches an empty class",
                "link {} joins fibres that are not adjacent in the base",
                "link {} exceeds the smaller class size")


def _check_level(level: float) -> None:
    """Raise ConfigError unless the level is a finite number (not a bool) of at least 20."""
    if not (_is_real(level) and level >= 20.0):
        raise ConfigError(f"reduction level must be finite and at least 20, not {level!r}")


@dataclass(frozen=True)
class ClassProfile:
    """Entry counts per (fibre, exponent) class of a norm-capped band vector.

    Validates the class-census invariants: integer keys and counts, per-fibre
    totals at most n, and the band rules a ``DyadicBandVector`` obeys, through
    the same ``DyadicScale.check_band``: nonnegative exponents within one band
    of multiplicative width d, and an exact squared norm at most 10. Keeps the
    populated classes in sorted order, as ``counts`` and as the read-only
    ``fibre``, ``exponent`` and ``count`` arrays.
    """

    scale: DyadicScale
    counts: Mapping[ClassVertex, int]

    def __post_init__(self):
        message = "a class is not a (fibre, exponent) pair of integers with an integer count"
        keys = _int64_items(self.counts, InvalidPatternError, message, (2,))
        count = _int64_items(self.counts.values(), InvalidPatternError, message)
        fibre, exp = keys.T
        bad = (count < 0) | (count > 0) & ((fibre < 0) | (fibre >= self.scale.h))
        if bad.any():
            key = next(itertools.islice(self.counts, int(np.argmax(bad)), None))
            raise InvalidPatternError(f"negative count at {key}" if self.counts[key] < 0
                                      else f"fibre {key[0]} out of range")
        live = np.flatnonzero(count > 0)
        live = live[np.lexsort((exp[live], fibre[live]))]
        fibre, exp, count = fibre[live], exp[live], count[live]
        totals = np.bincount(fibre, count, self.scale.h)
        if (totals > self.scale.n).any():
            over = int(np.argmax(totals > self.scale.n))
            raise InvalidPatternError(
                f"fibre {over} holds {int(totals[over])} entries but n = {self.scale.n}")
        exps, sizes = exp.tolist(), count.tolist()
        self.scale.check_band(list(zip(exps, sizes)), InvalidPatternError)
        for name, array in (("fibre", fibre), ("exponent", exp), ("count", count)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "counts", MappingProxyType(
            dict(zip(zip(fibre.tolist(), exps), sizes))))

    @property
    def vertices(self) -> tuple[ClassVertex, ...]:
        return tuple(self.counts)

    @property
    def total(self) -> int:
        """Number of entries across all classes."""
        return sum(self.counts.values())


@dataclass(frozen=True)
class Pattern:
    """A class profile plus matched-pair counts between classes across base
    edges.  Links are stored sparsely on canonically ordered class pairs;
    an absent pair means zero matched pairs.  ``link_ends`` (indices into
    ``profile.vertices``) and ``link_counts`` hold them as read-only arrays."""

    base: BaseGraph
    profile: ClassProfile
    links: Mapping[ClassEdge, int]

    def __post_init__(self):
        if self.base.h != self.profile.scale.h:
            raise DimensionMismatchError("profile and base disagree on the fibre count")
        if self.base.d != self.profile.scale.d:
            raise DimensionMismatchError("profile and base disagree on the degree")
        vertices, size, h = self.profile.vertices, len(self.links), self.base.h
        ends, plain = _read_int64s(list(self.links) or np.zeros((0, 2, 2), np.int64))
        count, plain_counts = _read_int64s(list(self.links.values()))
        if np.shape(ends) != (size, 2, 2) or np.shape(count) != (size,):
            raise InvalidPatternError(
                "a link is not a pair of (fibre, exponent) classes with an integer count")
        # each end's index among the sorted classes; an end outside them reads -1
        vfibre, vexp = self.profile.fibre, self.profile.exponent
        index = np.full((h + 1, int(vexp.max(initial=0)) + 2), -1)
        index[vfibre, vexp] = np.arange(len(vertices))
        given = index[ends[..., 0].clip(-1, h), ends[..., 1].clip(-1, index.shape[1] - 1)]
        lo, hi = np.sort(given, axis=1).T
        # every earlier link is valid when one is checked, so a repeat can
        # only be of a live link between populated classes
        live = np.flatnonzero((lo >= 0) & (count > 0))
        order = live[np.lexsort((hi[live], lo[live]))]
        repeat, apart, over = (np.zeros(size, dtype=bool) for _ in range(3))
        repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        edges = (np.arange(h) * h + self.base.neighbour_index()).T.ravel()
        pairs = vfibre[lo[live]] * h + vfibre[hi[live]]
        apart[live] = edges[np.searchsorted(edges, pairs).clip(max=edges.size - 1)] != pairs
        sizes = self.profile.count
        over[live] = count[live] > np.minimum(sizes[lo[live]], sizes[hi[live]])
        problem = np.select([count < 0, repeat, (count > 0) & (lo < 0), apart, over],
                            [1, 2, 3, 4, 5])
        if problem.any():
            first = int(np.flatnonzero(problem)[0])
            raise InvalidPatternError(_LINK_ERRORS[problem[first] - 1].format(
                next(itertools.islice(self.links, first, None))))
        canonical = (plain and plain_counts and order.size == size and (order == np.arange(size)).all()
                     and (given[:, 0] < given[:, 1]).all())
        ends, count = np.stack((lo[order], hi[order]), axis=1), count[order]
        for name, array in (("link_ends", ends), ("link_counts", count)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        links = (dict(self.links) if canonical else  # canonical input: the copy reuses its keys
                 dict(zip(zip(*(map(vertices.__getitem__, c) for c in ends.T.tolist())), count.tolist())))
        object.__setattr__(self, "links", MappingProxyType(links))

    def restricted(self, kept: Iterable[ClassVertex]) -> "Pattern":
        """Sub-pattern induced by a set of class vertices: counts outside the
        set become zero, links survive only when both endpoints are kept."""
        keep = set(kept)
        counts = {v: c for v, c in self.profile.counts.items() if v in keep}
        links = {pair: c for pair, c in self.links.items()
                 if pair[0] in keep and pair[1] in keep}
        return Pattern(self.base, ClassProfile(self.scale, counts), links)

    @property
    def scale(self) -> DyadicScale:
        return self.profile.scale


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """range(s, s + k) for every paired start s and length k, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())


class ClassGraph:
    """Adjacency among populated classes: fibres adjacent in the base with
    weight ratio strictly inside (1/sqrt(d), sqrt(d)).

    Held as arrays over the sorted ``vertices`` (``fibre``, ``exponent``):
    row i of ``nbr`` lists vertex i's neighbours by index, in sorted order,
    where ``valid`` holds, padded to the largest degree; ``upper`` marks each
    edge at its lower end.  ``fibre_neighbours[f]`` lists fibre f's base
    neighbours.
    """

    def __init__(self, pattern: Pattern):
        base = pattern.base
        self.vertices: tuple[ClassVertex, ...] = pattern.profile.vertices
        size = len(self.vertices)
        self.fibre, self.exponent = pattern.profile.fibre, pattern.profile.exponent
        self.fibre_neighbours = base.neighbour_index().T
        # every class of every base-adjacent fibre, in sorted order, then the band cut
        fibres = self.fibre_neighbours[self.fibre]
        spans = np.bincount(self.fibre, minlength=base.h)[fibres]
        first = np.searchsorted(self.fibre, np.arange(base.h))
        cand = _ranges(first[fibres].ravel(), spans.ravel())
        owner = np.repeat(np.arange(size), spans.sum(axis=1))
        keep = np.abs(self.exponent[owner] - self.exponent[cand]) < pattern.scale.gap_limit
        degree = np.bincount(owner[keep], minlength=size)
        self.valid = np.arange(max(int(degree.max(initial=0)), 1)) < degree[:, None]
        self.nbr = np.zeros(self.valid.shape, np.int64)
        self.nbr[self.valid] = cand[keep]
        self.upper = self.valid & (self.nbr > np.arange(size)[:, None])


class DeviationTable:
    """Deviation data over the whole class graph, as arrays aligned with the
    graph's ``nbr``: expected matched pairs ``mu``, relative ``gap``, the
    ``large`` and ``small`` regime masks and the signed potency ``term`` (0.0
    on padding).  ``count``, ``weight`` and ``square`` hold each vertex's
    class size, entry weight and weight ** 2; ``weights`` maps each populated
    exponent to its weight.  Every value has the bits of the per-edge formula
    (mu = ab/n, gap = kn/(ab) - 1 and term = w_a w_b (k - mu) for classes of sizes
    a and b joined by k pairs) while n < 2**26, so the float products are exact.
    """

    def __init__(self, pattern: Pattern):
        self.graph = g = ClassGraph(pattern)
        n, size = float(pattern.scale.n), len(g.vertices)
        exps, which = np.unique(g.exponent, return_inverse=True)
        self.weights = {exp: pattern.scale.weight(exp) for exp in exps.tolist()}
        self.count = pattern.profile.count
        self.weight = np.array(list(self.weights.values()), dtype=float)[which]
        self.square = np.array([w ** 2 for w in self.weights.values()], dtype=float)[which]
        # each link's count goes to the entries of both its ends, found by
        # (row, neighbour) key among the sorted entry keys and a sentinel
        ends = pattern.link_ends
        keys = np.append((np.arange(size)[:, None] * size + g.nbr)[g.valid], size * size)
        wanted = np.concatenate([ends[:, 0] * size + ends[:, 1], ends[:, 1] * size + ends[:, 0]])
        slot = np.searchsorted(keys, wanted)
        hit = keys[slot] == wanted
        observed = np.zeros(g.nbr.shape, np.int64)
        observed.reshape(-1)[np.flatnonzero(g.valid)[slot[hit]]] = np.tile(
            pattern.link_counts, 2)[hit]
        count = self.count.astype(float)  # in int64, products and observed * n overflow for large n
        products = count[:, None] * count[g.nbr]
        self.mu = products / n
        self.gap = observed * n / products - 1.0
        self.large = g.valid & (self.gap > LARGE_DEVIATION_CUTOFF)
        self.small = g.valid & ~self.large
        self.term = np.where(g.valid, self.weight[:, None] * self.weight[g.nbr]
                             * (observed - self.mu), 0.0)


def _row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked values summed left to right along the last axis, as a loop from
    0.0 adds them (np.sum would add pairwise)."""
    return np.cumsum(np.where(mask, values, 0.0), axis=-1)[..., -1]


def _fsums(values: np.ndarray, rows: np.ndarray | None = None, nrows: int = 1):
    """math.fsum of the values, or with ``rows`` (each value's row, below ``nrows``)
    of each row's values, bit for bit: bincount sums each value's top 27 bits and
    its rest per (row, exponent) bin exactly, and fsum rounds a row's bin sums.
    Non-finite input, 2^960 or more (fsum may overflow) or 2^26 values go to fsum."""
    values = np.ascontiguousarray(values, dtype=float).reshape(-1)
    bits = values.view(np.int64)
    exp = (bits >> 52) & 0x7FF
    if values.size >= 1 << 26 or exp.max(initial=0) >= 1023 + 960:
        groups = [values] if rows is None else [values[rows == r] for r in range(nrows)]
        sums = np.array([math.fsum(group.tolist()) for group in groups])
    else:
        column = np.cumsum(np.bincount(exp, minlength=0x800) > 0) - 1  # the exponents present
        width = int(column[-1]) + 1
        high = (bits & -(1 << 26)).view(float)
        bins = column[exp] if rows is None else rows * width + column[exp]
        parts = np.concatenate([np.bincount(bins, half, nrows * width)
                                .reshape(nrows, width) for half in (high, values - high)], axis=1)
        sums = np.array([math.fsum(part) for part in parts.tolist()])
    return float(sums[0]) if rows is None else sums


def _members_potency(table: DeviationTable, alive: np.ndarray, regime: np.ndarray) -> float:
    both = regime & table.graph.upper & alive[:, None] & alive[table.graph.nbr]
    return abs(_fsums(table.term[both]))


def _peak(terms) -> float:
    positive, negative = _fsums(terms, np.less(terms, 0), 2).tolist()
    return max(positive, -negative)


def potency(pattern: Pattern) -> float:
    """Absolute signed sum of weight * (observed - expected) over the edges
    of the class graph."""
    table = DeviationTable(pattern)
    return abs(_fsums(table.term[table.graph.upper]))


def peak_potency(pattern: Pattern) -> float:
    """Largest absolute signed sum achievable by any subset of class-graph
    edges: the bigger of the positive-term total and the negative-term
    total's magnitude."""
    table = DeviationTable(pattern)
    return _peak(table.term[table.graph.upper])


def deviation_rate(gap: float) -> float:
    """Rate function (1 + gap) * log(1 + gap) - gap, continuously extended
    to 1 at gap = -1."""
    if gap < -1.0:
        raise DeviationDomainError("relative gap below -1")
    if gap == -1.0:
        return 1.0
    return (1.0 + gap) * math.log1p(gap) - gap


def _vertex_sums(pattern: Pattern, table: DeviationTable) -> tuple[np.ndarray, ...]:
    """Every vertex's neighbour mass (the squared-weight mass of the classes in
    base-adjacent fibres), tilted mass (the mass on its class-graph neighbours,
    tilted by their weight ratio over sqrt(d)), headroom (how much larger the
    neighbour mass or the expected occupancy is than the class uses; at least
    e) and log(headroom) / headroom."""
    g, scale = table.graph, pattern.scale
    root_d = math.sqrt(scale.d)
    # bincount adds each fibre's masses in vertex order, as a loop from 0.0 does
    fibre_mass = np.bincount(g.fibre, weights=table.square * table.count, minlength=scale.h)
    mass = _fsums(fibre_mass[g.fibre_neighbours], np.arange(scale.h).repeat(scale.d),
                  scale.h)[g.fibre]
    tilt = (table.square[g.nbr] * table.count[g.nbr]
            * (table.weight[g.nbr] / (table.weight * root_d)[:, None]))
    headroom = np.maximum(mass / (table.count * table.square * scale.d),
                          math.e * scale.n / table.count)
    return (mass, _row_sums(tilt, g.valid), headroom,
            np.array([math.log(x) / x for x in headroom.tolist()], dtype=float))


# ---------------------------------------------------------------------------
# pattern extraction


def extract_pattern(vec: DyadicBandVector, lift: Lift) -> tuple[Pattern, dict]:
    """Census of a band vector on a lift: class sizes, matched-pair counts
    between classes across every base edge, and the member positions of each
    class."""
    if not isinstance(vec, DyadicBandVector):
        raise NotBandVectorError("expected a dyadic band vector")
    if vec.scale != DyadicScale.of(lift):
        raise DimensionMismatchError("vector scale does not match the lift")
    profile = ClassProfile(vec.scale, vec.histogram())
    links, width = {}, int(vec.exponents.max(initial=0)) + 1
    for (u, v), perm in lift.perms.items():  # u < v, so ((u, eu), (v, ev)) is canonical
        mask = vec.nonzero[u] & vec.nonzero[v][perm]
        pairs = vec.exponents[u][mask] * width + vec.exponents[v][perm][mask]
        for pair, count in zip(*map(np.ndarray.tolist, np.unique(pairs, return_counts=True))):
            links[(u, pair // width), (v, pair % width)] = count
    witnesses = {(i, e): tuple(np.flatnonzero(vec.nonzero[i] & (vec.exponents[i] == e)).tolist())
                 for i, e in profile.counts}
    return Pattern(lift.base, profile, links), witnesses


# ---------------------------------------------------------------------------
# greedy reductions


@dataclass(frozen=True)
class Removal:
    vertex: ClassVertex
    condition: str
    local_potency: float


@dataclass(frozen=True)
class ReductionReport:
    """Transcript of one greedy reduction.

    kept is the surviving class-vertex set; removals lists, in order, each
    discarded vertex with the condition it violated and its local potency on
    the then-current survivor set.  potency_after is guaranteed to be at
    least potency_before - removed_potency, and removed_potency stays within
    the branch budget.
    """

    branch: str
    kept: tuple[ClassVertex, ...]
    removals: tuple[Removal, ...]
    removed_potency: float
    budget: float
    potency_before: float
    potency_after: float

    @property
    def retention_floor(self) -> float:
        return self.potency_before - self.removed_potency


_BUDGET_FACTOR = {"large": 30.0, "small": 55.0, "general": 150.0}


def _branch_floors(table: DeviationTable, sums: tuple[np.ndarray, ...], level: float,
                   scale: DyadicScale, branch: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The branch's condition labels, and each vertex's floor for each."""
    root_d = math.sqrt(scale.d)
    mass, tilted, _, headroom_log = sums
    share = level * table.count * table.square * root_d
    if branch == "large":
        floors = {"large1": share, "large2": level * tilted / root_d}
    elif branch == "small":
        floors = {"small1": share,
                  "small2": level * mass * table.count / (scale.n * root_d),
                  "small3": level * mass * headroom_log / root_d}
    else:
        floors = {"general1": 2.0 * share,
                  "general2": 2.0 * level * tilted / root_d,
                  "general3": 2.0 * level * mass * table.count / (scale.n * root_d),
                  "general4": 2.0 * level * mass * headroom_log / root_d}
    return tuple(floors), np.stack(list(floors.values()), axis=1)


def _greedy_reduce(pattern: Pattern, level: float, branch: str,
                   table: DeviationTable | None = None,
                   potency_before: float | None = None,
                   total: float | None = None) -> ReductionReport:
    """One greedy reduction; given the pattern's ``total`` potency, it also
    checks ``reduce_pattern``'s survivor guarantees."""
    _check_level(level)
    table = table if table is not None else DeviationTable(pattern)
    g = table.graph
    labels, floors = _branch_floors(table, _vertex_sums(pattern, table), level,
                                    pattern.scale, branch)
    regime = {"large": table.large, "small": table.small}.get(branch, g.valid)
    size = len(g.vertices)
    alive = np.ones(size, dtype=bool)
    violating = (np.abs(_row_sums(table.term, regime))[:, None] < floors).any(axis=1)
    stale = np.zeros_like(alive)
    removals: list[Removal] = []
    # one turn drops the first violator in sorted order and stales its live
    # regime neighbours.  A round sums the first `window` pending vertices as
    # if the pending ones below each were dropped, and drops the prefix where
    # that holds: each violates, and no drop stales a settled vertex below the
    # next.  The sum it stops at is exact, so a vertex not violating settles.
    # The window doubles after a whole prefix and restarts at 1 after a break.
    window = 1
    while (pending := np.flatnonzero(pend := violating | stale)).size:
        turn = pending[:window]
        rows = g.nbr[turn]
        live = regime[turn] & alive[rows]
        sums = np.abs(_row_sums(table.term[turn], live & ~(pend[rows] & (rows < turn[:, None]))))
        fails = sums[:, None] < floors[turn]
        reach = np.minimum.accumulate(np.where(live & ~pend[rows], rows, size).min(axis=1))
        on_turn = np.append(True, reach[:-1] > turn[1:])
        commit = on_turn & fails.any(axis=1)
        done = turn.size if commit.all() else int(np.argmin(commit))
        dropped = turn[:done]
        removals += map(Removal, map(g.vertices.__getitem__, dropped.tolist()),
                        map(labels.__getitem__, np.argmax(fails[:done], axis=1).tolist()),
                        sums[:done].tolist())
        alive[dropped] = violating[dropped] = stale[dropped] = False
        hit = g.nbr[dropped]
        stale[hit[regime[dropped] & alive[hit]]] = True
        if done < turn.size and not fails[done].any():
            violating[turn[done]] = stale[turn[done]] = False
        window = 2 * window if done == turn.size else 1
    if potency_before is None:
        potency_before = _members_potency(table, np.ones_like(alive), regime)
    if total is not None:
        _check_dispatch_guarantees(pattern, level, alive, total, table)
    return ReductionReport(
        branch=branch,
        kept=tuple(v for v, keep in zip(g.vertices, alive.tolist()) if keep),
        removals=tuple(removals),
        removed_potency=math.fsum(r.local_potency for r in removals),
        budget=_BUDGET_FACTOR[branch] * level * math.sqrt(pattern.scale.d),
        potency_before=potency_before,
        # with nothing removed, the survivors' sum is the one just taken
        potency_after=_members_potency(table, alive, regime) if removals else potency_before,
    )


def reduce_large(pattern: Pattern, level: float = 20.0) -> ReductionReport:
    """Greedy reduction keeping classes whose large-deviation local potency
    clears both the weight-share and the tilted-mass conditions."""
    return _greedy_reduce(pattern, level, "large")


def reduce_small(pattern: Pattern, level: float = 20.0) -> ReductionReport:
    """Greedy reduction for the small-deviation regime (three conditions)."""
    return _greedy_reduce(pattern, level, "small")


def reduce_general(pattern: Pattern, level: float = 20.0) -> ReductionReport:
    """Greedy reduction on the full local potency with doubled thresholds."""
    return _greedy_reduce(pattern, level, "general")


def reduce_pattern(pattern: Pattern, level: float = 20.0) -> ReductionReport:
    """Dispatch to the regime carrying at least half the potency, then check
    the survivor guarantees.

    The result satisfies peak_potency(sub-pattern) >= potency/2 -
    55 * level * sqrt(d), and every kept vertex is locally unlikely: its
    expected-count-weighted deviation-rate sum over kept neighbours is at
    least (level/10) * count * log(e n / count).
    """
    table = DeviationTable(pattern)
    everything = np.ones(len(table.graph.vertices), dtype=bool)
    total = _members_potency(table, everything, table.graph.valid)
    heavy = _members_potency(table, everything, table.large)
    branch = "large" if heavy >= total / 2.0 else "small"
    return _greedy_reduce(pattern, level, branch, table,
                          heavy if branch == "large" else None, total)


def _check_dispatch_guarantees(pattern: Pattern, level: float, kept: np.ndarray,
                               total: float, table: DeviationTable) -> None:
    g = table.graph
    both = g.valid & kept[:, None] & kept[g.nbr]
    floor = total / 2.0 - 55.0 * level * math.sqrt(pattern.scale.d)
    # the kept sub-pattern's class graph is the induced subgraph and its
    # deviations are these, so this is peak_potency(pattern.restricted(kept))
    achieved = _peak(table.term[both & g.upper])
    if achieved < floor - 1e-9 * max(1.0, abs(floor)):
        raise LiftlabError("reduction lost more potency than its guarantee allows")
    n = pattern.scale.n
    gaps, which = np.unique(table.gap[both], return_inverse=True)
    rates = np.array([deviation_rate(gap) for gap in gaps.tolist()], dtype=float)[which]
    lhs = _fsums(table.mu[both] * rates, np.nonzero(both)[0], len(g.vertices)).tolist()
    for vertex in np.flatnonzero(kept).tolist():
        count = int(table.count[vertex])
        rhs = (level / 10.0) * count * math.log(math.e * n / count)
        if lhs[vertex] < rhs - 1e-9 * max(1.0, rhs):
            raise LiftlabError("kept vertex fails the local-unlikeliness bound")


# ---------------------------------------------------------------------------
# counting bounds


def pattern_count_bound(n: int, h: int, d: int, max_count: int) -> float:
    """Natural log of the counting bound log2(nh) * max_count^(2 h d log2 d)
    on patterns whose class sizes all stay below max_count."""
    _check_count(max_count, "max_count")
    if DyadicScale(n, h, d).size < 2:  # rejects a non-positive or non-integer n, h or d
        raise ConfigError("need at least two lift vertices")
    return math.log(math.log2(n * h)) + 2.0 * h * d * math.log2(d) * math.log(max_count)


def _default_base(h: int, d: int) -> BaseGraph:
    if d == h - 1:
        return complete_graph(h)
    if d == 2:
        return cycle_graph(h)
    raise ConfigError("no default base for this (h, d); pass one explicitly")


def enumerate_patterns(n: int, h: int, d: int, max_count: int,
                       base: BaseGraph | None = None,
                       guard: int = 1_000_000) -> int:
    """Count distinct valid patterns with every class size below max_count.

    Walks anchor exponents (band starts), then class-size assignments over
    the band's slots, then link counts on the class-graph pairs, deduplicating
    identical patterns that arise under several anchors.  Raises TooLarge if
    the walk or the distinct count would exceed the guard.
    """
    _check_count(max_count, "max_count")
    base = base if base is not None else _default_base(h, d)
    if base.h != h or base.d != d:
        raise DimensionMismatchError("base does not match the stated (h, d)")
    scale = DyadicScale(n, h, d)  # rejects a non-positive n, h or d
    top = scale.headroom(1)  # anchors run up to the largest exponent within the norm cap
    size_limit = min(max_count - 1, n)
    raw = (top + 1) * (size_limit + 1) ** (h * (scale.max_spread + 1))
    if raw > 20 * guard:
        raise TooLargeError("pattern enumeration would take too many steps")
    seen: set = set()
    for anchor in range(top + 1):
        exps = range(anchor, min(anchor + scale.max_spread, top) + 1)
        slots = [(i, e) for i in range(h) for e in exps]
        for sizes in itertools.product(range(size_limit + 1), repeat=len(slots)):
            counts = {slot: c for slot, c in zip(slots, sizes) if c > 0}
            if not scale.within_cap([(e, c) for (_, e), c in counts.items()]):
                continue
            per_fibre: Counter = Counter()
            for (i, _), c in counts.items():
                per_fibre[i] += c
            if any(total > n for total in per_fibre.values()):
                continue
            pairs = []
            verts = sorted(counts)
            for u, v in itertools.combinations(verts, 2):
                if base.are_adjacent(u[0], v[0]) and abs(u[1] - v[1]) < scale.gap_limit:
                    pairs.append(((u, v), min(counts[u], counts[v])))
            profile_key = tuple(sorted(counts.items()))
            for link_values in itertools.product(
                    *(range(m + 1) for _, m in pairs)):
                links = {pair: val for (pair, _), val in zip(pairs, link_values)
                         if val > 0}
                seen.add((profile_key, tuple(sorted(links.items()))))
                if len(seen) > guard:
                    raise TooLargeError("more patterns than the guard allows")
    return len(seen)


# ---------------------------------------------------------------------------
# text formats


def pattern_to_text(pattern: Pattern) -> str:
    lines = ["lift-pattern",
             f"n {pattern.scale.n}",
             f"h {pattern.scale.h}",
             f"d {pattern.scale.d}"]
    exps = [e for (_, e) in pattern.profile.counts]
    lines.append(f"band {min(exps) if exps else 0}")
    for (fibre, exp), count in pattern.profile.counts.items():
        lines.append(f"class {fibre} {exp} {count}")
    for ((f1, e1), (f2, e2)), count in pattern.links.items():
        lines.append(f"link {f1} {e1} {f2} {e2} {count}")
    return "\n".join(lines) + "\n"


def pattern_from_text(text: str, base: BaseGraph) -> Pattern:
    header: dict[str, int] = {}
    counts: dict[ClassVertex, int] = {}
    links: dict[ClassEdge, int] = {}
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "lift-pattern":
        raise LiftlabError("not a pattern file")
    arity = {"n": 1, "h": 1, "d": 1, "band": 1, "class": 3, "link": 5}
    for line in lines[1:]:
        kind, *rest = line.split()
        if kind not in arity:
            raise LiftlabError(f"unknown line kind {kind!r}")
        try:
            values = [int(t) for t in rest]
        except ValueError:
            values = []
        if len(values) != arity[kind]:
            raise InvalidPatternError(f"malformed line: {line!r}")
        target, key, value = (
            (counts, tuple(values[:2]), values[2]) if kind == "class" else
            (links, (tuple(values[:2]), tuple(values[2:4])), values[4]) if kind == "link" else
            (header, kind, values[0]))
        if key in target:
            raise InvalidPatternError(f"repeated line: {line!r}")
        target[key] = value
    for key in ("n", "h", "d"):
        if key not in header:
            raise LiftlabError(f"missing header field {key!r}")
    scale = DyadicScale(header["n"], header["h"], header["d"])
    pattern = Pattern(base, ClassProfile(scale, counts), links)
    exps = [e for (_, e) in pattern.profile.counts]
    if exps and "band" in header and header["band"] != min(exps):
        raise InvalidPatternError("band anchor does not match the class exponents")
    return pattern


def reduction_to_text(report: ReductionReport) -> str:
    lines = ["reduction",
             f"branch {report.branch}",
             f"budget {report.budget!r}",
             f"potency-before {report.potency_before!r}",
             f"potency-after {report.potency_after!r}",
             f"removed {len(report.removals)}"]
    for removal in report.removals:
        fibre, exp = removal.vertex
        lines.append(
            f"remove {fibre} {exp} {removal.condition} {removal.local_potency!r}")
    lines.append(f"kept {len(report.kept)}")
    for fibre, exp in report.kept:
        lines.append(f"keep {fibre} {exp}")
    return "\n".join(lines) + "\n"
