"""Weight-class patterns: census data describing how a dyadic vector sits on
a lift, and the reduction machinery that keeps only its improbable core.

A pattern records, for each (fibre, weight-exponent) class, how many entries
the class holds, and for each pair of classes across a base edge, how many
matched pairs join them.  Potency measures how far those joint counts deviate
from what uniformly random matchings would give, weighted by entry products.
The greedy reductions trim the class graph down to a subset on which every
class contributes enough deviation to be individually unlikely. Each public
call builds the class graph and deviation table once, as numpy arrays over
the sorted classes, and passes them along. Sums run in the order of a loop
over each class's sorted neighbours, or through math.fsum, so the arrays
give every result the bits a per-edge loop gives.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dyadic import DyadicBandVector, DyadicScale
from .errors import (
    ConfigError,
    DeviationDomainError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidPatternError,
    LiftlabError,
    NotBandVectorError,
    TooLargeError,
    VertexNotInUError,
)
from .graphs import BaseGraph, Lift, complete_graph, cycle_graph

ClassVertex = tuple[int, int]  # (fibre, weight exponent)
ClassEdge = tuple[ClassVertex, ClassVertex]

REGIMES = ("large", "small")

# Deviations above this cutoff count as "large"; at or below, "small".
LARGE_DEVIATION_CUTOFF = math.e ** 2 - 1.0


def _edge_key(u: ClassVertex, v: ClassVertex) -> ClassEdge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class ClassProfile:
    """Entry counts per (fibre, exponent) class of a norm-capped band vector.

    Validates the class-census invariants: nonnegative integer exponents,
    per-fibre totals at most n, exact squared norm at most 10 (as the integer
    sum of count * 4^exponent against 10nh), and all exponents within one
    band of multiplicative width d.
    """

    scale: DyadicScale
    counts: Mapping[ClassVertex, int]

    def __post_init__(self):
        cleaned: dict[ClassVertex, int] = {}
        for key, value in self.counts.items():
            fibre, exp = key
            count = int(value)
            if count < 0:
                raise InvalidPatternError(f"negative count at {key}")
            if count == 0:
                continue
            if not 0 <= fibre < self.scale.h:
                raise InvalidPatternError(f"fibre {fibre} out of range")
            if exp < 0:
                raise InvalidPatternError(f"negative exponent at {key}")
            if 2 * exp > (10 * self.scale.size).bit_length():  # before 4 ** exp is formed
                raise InvalidPatternError("squared norm exceeds 10")
            cleaned[(int(fibre), int(exp))] = count
        per_fibre: Counter = Counter()
        norm_int = 0
        for (fibre, exp), count in cleaned.items():
            per_fibre[fibre] += count
            norm_int += count * (4 ** exp)
        for fibre, total in per_fibre.items():
            if total > self.scale.n:
                raise InvalidPatternError(
                    f"fibre {fibre} holds {total} entries but n = {self.scale.n}")
        if norm_int > 10 * self.scale.size:
            raise InvalidPatternError("squared norm exceeds 10")
        if cleaned:
            exps = [exp for (_, exp) in cleaned]
            if 2 ** (max(exps) - min(exps)) > self.scale.d:
                raise InvalidPatternError("exponents spread beyond one band of width d")
        ordered = dict(sorted(cleaned.items()))
        object.__setattr__(self, "counts", MappingProxyType(ordered))

    @classmethod
    def from_band_vector(cls, vec: DyadicBandVector) -> "ClassProfile":
        return cls(vec.scale, vec.histogram())

    def weight(self, exponent: int) -> float:
        return math.ldexp(1.0, exponent) / self.scale.root_size

    @property
    def vertices(self) -> tuple[ClassVertex, ...]:
        return tuple(self.counts)

    @property
    def total(self) -> int:
        """Number of entries across all classes."""
        return sum(self.counts.values())

    def fibre_total(self, fibre: int) -> int:
        return sum(c for (i, _), c in self.counts.items() if i == fibre)

    def weights_per_fibre(self) -> dict[int, int]:
        out: Counter = Counter()
        for (fibre, _) in self.counts:
            out[fibre] += 1
        return dict(out)


@dataclass(frozen=True)
class Pattern:
    """A class profile plus matched-pair counts between classes across base
    edges.  Links are stored sparsely on canonically ordered class pairs;
    an absent pair means zero matched pairs."""

    base: BaseGraph
    profile: ClassProfile
    links: Mapping[ClassEdge, int]

    def __post_init__(self):
        if self.base.h != self.profile.scale.h:
            raise DimensionMismatchError("profile and base disagree on the fibre count")
        if self.base.d != self.profile.scale.d:
            raise DimensionMismatchError("profile and base disagree on the degree")
        counts = self.profile.counts
        cleaned: dict[ClassEdge, int] = {}
        for pair, value in self.links.items():
            u, v = pair
            count = int(value)
            if count < 0:
                raise InvalidPatternError(f"negative link count at {pair}")
            if count == 0:
                continue
            key = _edge_key(tuple(u), tuple(v))
            if key in cleaned:
                raise InvalidPatternError(f"duplicate link {pair}")
            a, b = key
            if a not in counts or b not in counts:
                raise InvalidPatternError(f"link {pair} touches an empty class")
            if not self.base.are_adjacent(a[0], b[0]):
                raise InvalidPatternError(
                    f"link {pair} joins fibres that are not adjacent in the base")
            if count > min(counts[a], counts[b]):
                raise InvalidPatternError(
                    f"link {pair} exceeds the smaller class size")
            cleaned[key] = count
        ordered = dict(sorted(cleaned.items()))
        object.__setattr__(self, "links", MappingProxyType(ordered))

    def link(self, u: ClassVertex, v: ClassVertex) -> int:
        return self.links.get(_edge_key(u, v), 0)

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
        self.index = {v: i for i, v in enumerate(self.vertices)}
        size = len(self.vertices)
        self.fibre, self.exponent = np.fromiter(itertools.chain.from_iterable(
            self.vertices), np.int64, 2 * size).reshape(size, 2).T
        self.fibre_neighbours = np.fromiter(itertools.chain.from_iterable(map(
            base.neighbours, range(base.h))), np.int64, base.h * base.d).reshape(base.h, -1)
        # every class of every base-adjacent fibre, in sorted order, then the band cut
        fibres = self.fibre_neighbours[self.fibre]
        spans = np.bincount(self.fibre, minlength=base.h)[fibres]
        first = np.searchsorted(self.fibre, np.arange(base.h))
        cand = _ranges(first[fibres].ravel(), spans.ravel())
        owner = np.repeat(np.arange(size), spans.sum(axis=1))
        keep = 4 ** np.abs(self.exponent[owner] - self.exponent[cand]) < pattern.scale.d
        degree = np.bincount(owner[keep], minlength=size)
        self.valid = np.arange(max(int(degree.max(initial=0)), 1)) < degree[:, None]
        self.nbr = np.zeros(self.valid.shape, np.int64)
        self.nbr[self.valid] = cand[keep]
        self.upper = self.valid & (self.nbr > np.arange(size)[:, None])

    def neighbours(self, v: ClassVertex) -> tuple[ClassVertex, ...]:
        i = self.index.get(v)
        return () if i is None else tuple(map(self.vertices.__getitem__,
                                              self.nbr[i, self.valid[i]].tolist()))

    def are_adjacent(self, u: ClassVertex, v: ClassVertex) -> bool:
        return v in self.neighbours(u)

    @property
    def edges(self) -> tuple[ClassEdge, ...]:
        verts = self.vertices
        return tuple((verts[u], verts[v]) for u, v in
                     zip(np.nonzero(self.upper)[0].tolist(), self.nbr[self.upper].tolist()))


@dataclass(frozen=True)
class EdgeDeviation:
    """Deviation data for one class-graph edge.

    expected is the mean matched-pair count between the two classes under a
    uniform matching; relative_gap is (observed / expected) - 1, with the
    convention that an edge touching an empty class has gap 1; term is the
    edge's signed contribution to potency.
    """

    edge: ClassEdge
    expected: float
    relative_gap: float
    regime: str
    term: float


def _deviation(edge: ClassEdge, a: int, b: int, n: int, observed: int,
               weight: float) -> EdgeDeviation:
    if a == 0 or b == 0:
        mu, gap = 0.0, 1.0
    else:
        mu = a * b / n
        gap = observed * n / (a * b) - 1.0
    regime = "large" if gap > LARGE_DEVIATION_CUTOFF else "small"
    return EdgeDeviation(edge, mu, gap, regime, weight * (observed - mu))


def edge_deviation(pattern: Pattern, u: ClassVertex, v: ClassVertex) -> EdgeDeviation:
    counts = pattern.profile.counts
    weight = pattern.profile.weight(u[1]) * pattern.profile.weight(v[1])
    return _deviation(_edge_key(u, v), counts.get(u, 0), counts.get(v, 0),
                      pattern.scale.n, pattern.link(u, v), weight)


class DeviationTable:
    """Deviation data over the whole class graph, as arrays aligned with the
    graph's ``nbr``: expected matched pairs ``mu``, relative ``gap``, the
    ``large`` and ``small`` regime masks and the signed potency ``term`` (0.0
    on padding).  ``count``, ``weight`` and ``square`` hold each vertex's
    class size, entry weight and weight ** 2; ``weights`` maps each populated
    exponent to its weight.  Every value has the bits of ``_deviation`` for
    its edge while n < 2**26, so the integer products convert exactly.
    ``rows``, ``row()``, ``incident()`` and ``edges`` present the table as
    ``EdgeDeviation`` objects, built on first use.
    """

    def __init__(self, pattern: Pattern, graph: ClassGraph | None = None):
        self.graph = g = graph if graph is not None else ClassGraph(pattern)
        counts, n, size = pattern.profile.counts, pattern.scale.n, len(g.vertices)
        self.weights = {exp: pattern.profile.weight(exp) for exp in sorted({e for _, e in counts})}
        squares = {exp: w ** 2 for exp, w in self.weights.items()}
        self.count = np.fromiter(counts.values(), np.int64, size)
        self.weight = np.array([self.weights[e] for e in g.exponent.tolist()], dtype=float)
        self.square = np.array([squares[e] for e in g.exponent.tolist()], dtype=float)
        # each link's count goes to the entries of both its ends, found by
        # (row, neighbour) key among the sorted entry keys and a sentinel
        ends = np.fromiter(map(g.index.__getitem__, itertools.chain.from_iterable(pattern.links)),
                           np.int64, 2 * len(pattern.links)).reshape(-1, 2)
        keys = np.append((np.arange(size)[:, None] * size + g.nbr)[g.valid], size * size)
        wanted = np.concatenate([ends[:, 0] * size + ends[:, 1], ends[:, 1] * size + ends[:, 0]])
        slot = np.searchsorted(keys, wanted)
        hit = keys[slot] == wanted
        observed = np.zeros(g.nbr.shape, np.int64)
        observed.reshape(-1)[np.flatnonzero(g.valid)[slot[hit]]] = np.tile(
            np.fromiter(pattern.links.values(), np.int64, len(pattern.links)), 2)[hit]
        products = self.count[:, None] * self.count[g.nbr]
        self.mu = products / n
        self.gap = observed * n / products - 1.0
        self.large = g.valid & (self.gap > LARGE_DEVIATION_CUTOFF)
        self.small = g.valid & ~self.large
        self.term = np.where(g.valid, self.weight[:, None] * self.weight[g.nbr]
                             * (observed - self.mu), 0.0)
        self._rows: Mapping[ClassEdge, EdgeDeviation] | None = None

    @property
    def rows(self) -> Mapping[ClassEdge, EdgeDeviation]:
        if self._rows is None:
            upper = self.graph.upper
            values = zip(self.graph.edges, self.mu[upper].tolist(), self.gap[upper].tolist(),
                         self.large[upper].tolist(), self.term[upper].tolist())
            self._rows = MappingProxyType({
                edge: EdgeDeviation(edge, mu, gap, "large" if large else "small", term)
                for edge, mu, gap, large, term in values})
        return self._rows

    def row(self, u: ClassVertex, v: ClassVertex) -> EdgeDeviation:
        return self.rows[_edge_key(u, v)]

    def incident(self, vertex: ClassVertex) -> Iterable[tuple[ClassVertex, EdgeDeviation]]:
        """(neighbour, row) for every class-graph neighbour, in sorted order."""
        return ((other, self.row(vertex, other)) for other in self.graph.neighbours(vertex))

    @property
    def edges(self) -> tuple[ClassEdge, ...]:
        return tuple(self.rows)


def _row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked values summed left to right along the last axis, as a loop from
    0.0 adds them (np.sum would add pairwise)."""
    return np.cumsum(np.where(mask, values, 0.0), axis=-1)[..., -1]


def _members_potency(table: DeviationTable, alive: np.ndarray, regime: np.ndarray) -> float:
    both = regime & table.graph.upper & alive[:, None] & alive[table.graph.nbr]
    return abs(math.fsum(table.term[both].tolist()))


def _peak(terms) -> float:
    terms = np.asarray(terms, dtype=float)
    return max(math.fsum(terms[terms > 0].tolist()), -math.fsum(terms[terms < 0].tolist()))


def potency(pattern: Pattern) -> float:
    """Absolute signed sum of weight * (observed - expected) over the edges
    of the class graph."""
    table = DeviationTable(pattern)
    return abs(math.fsum(table.term[table.graph.upper].tolist()))


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


# ---------------------------------------------------------------------------
# per-vertex aggregates


@dataclass(frozen=True)
class AggregateRow:
    """Aggregates at one class vertex.

    neighbour_mass: squared-weight mass held by classes in fibres adjacent
        to this one (no band restriction).
    tilted_mass: mass on class-graph neighbours, tilted by the weight ratio
        over sqrt(d) so near-maximal ratios count fully.
    headroom: how much larger the available neighbour mass or the expected
        occupancy is than this class uses; always at least e.
    headroom_log: log(headroom) / headroom.
    local_*: absolute signed term sums over the vertex's class-graph
        neighbours, split by deviation regime.
    """

    vertex: ClassVertex
    count: int
    weight: float
    neighbour_mass: float
    tilted_mass: float
    headroom: float
    headroom_log: float
    local_potency: float
    local_large: float
    local_small: float


class AggregateTable:

    def __init__(self, rows: dict[ClassVertex, AggregateRow]):
        self.rows: Mapping[ClassVertex, AggregateRow] = MappingProxyType(dict(rows))

    def row(self, vertex: ClassVertex) -> AggregateRow:
        return self.rows[vertex]


def _vertex_sums(pattern: Pattern, table: DeviationTable) -> tuple[np.ndarray, ...]:
    """Every vertex's neighbour_mass, tilted_mass, headroom and headroom_log."""
    g, scale = table.graph, pattern.scale
    root_d = math.sqrt(scale.d)
    # bincount adds each fibre's masses in vertex order, as a loop from 0.0 does
    fibre_mass = np.bincount(g.fibre, weights=table.square * table.count, minlength=scale.h)
    mass = np.array([math.fsum(row) for row in fibre_mass[g.fibre_neighbours].tolist()])[g.fibre]
    tilt = (table.square[g.nbr] * table.count[g.nbr]
            * (table.weight[g.nbr] / (table.weight * root_d)[:, None]))
    headroom = np.maximum(mass / (table.count * table.square * scale.d),
                          math.e * scale.n / table.count)
    return (mass, _row_sums(tilt, g.valid), headroom,
            np.array([math.log(x) / x for x in headroom.tolist()], dtype=float))


def aggregates(pattern: Pattern, graph: ClassGraph | None = None,
               table: DeviationTable | None = None) -> AggregateTable:
    """Per-vertex aggregates over the class graph of ``table`` (built on ``graph`` if absent)."""
    table = table if table is not None else DeviationTable(pattern, graph)
    large, small = _row_sums(table.term, table.large), _row_sums(table.term, table.small)
    fields = zip(table.graph.vertices, table.count.tolist(), table.weight.tolist(),
                 *(column.tolist() for column in _vertex_sums(pattern, table)),
                 np.abs(large + small).tolist(), np.abs(large).tolist(), np.abs(small).tolist())
    return AggregateTable({values[0]: AggregateRow(*values) for values in fields})


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
    profile = ClassProfile.from_band_vector(vec)
    links: Counter = Counter()
    for (u, v), perm in lift.perms.items():
        mask = vec.nonzero[u] & vec.nonzero[v][perm]
        if not mask.any():
            continue
        left = vec.exponents[u][mask]
        right = vec.exponents[v][perm][mask]
        for eu, ev in zip(left.tolist(), right.tolist()):
            links[_edge_key((u, eu), (v, ev))] += 1
    witnesses = {(i, e): tuple(np.flatnonzero(vec.nonzero[i] & (vec.exponents[i] == e)).tolist())
                 for i, e in profile.counts}
    return Pattern(lift.base, profile, dict(links)), witnesses


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
                   potency_before: float | None = None) -> ReductionReport:
    if level < 20.0:
        raise ConfigError("reduction level must be at least 20")
    table = table if table is not None else DeviationTable(pattern)
    g = table.graph
    labels, floors = _branch_floors(table, _vertex_sums(pattern, table), level,
                                    pattern.scale, branch)
    regime = {"large": table.large, "small": table.small}.get(branch, g.valid)
    alive = np.ones(len(g.vertices), dtype=bool)
    local = np.abs(_row_sums(table.term, regime))
    violating = (local[:, None] < floors).any(axis=1)
    stale = np.zeros_like(alive)
    removals: list[Removal] = []
    # every local sum depends only on the live set, so the first violator in
    # sorted order is the one a fresh scan would drop.  A drop changes only
    # the sums of its live neighbours across edges in the branch's regimes;
    # the scan recomputes those when it reaches them.
    while (pending := violating | stale).any():
        vertex = int(np.argmax(pending))
        row = g.nbr[vertex]
        if stale[vertex]:
            local[vertex] = abs(_row_sums(table.term[vertex], regime[vertex] & alive[row]))
            violating[vertex] = (local[vertex] < floors[vertex]).any()
            stale[vertex] = False
            continue
        label = labels[int(np.argmax(local[vertex] < floors[vertex]))]
        removals.append(Removal(g.vertices[vertex], label, float(local[vertex])))
        alive[vertex] = violating[vertex] = False
        stale[row[regime[vertex] & alive[row]]] = True
    if potency_before is None:
        potency_before = _members_potency(table, np.ones_like(alive), regime)
    return ReductionReport(
        branch=branch,
        kept=tuple(v for v, keep in zip(g.vertices, alive.tolist()) if keep),
        removals=tuple(removals),
        removed_potency=math.fsum(r.local_potency for r in removals),
        budget=_BUDGET_FACTOR[branch] * level * math.sqrt(pattern.scale.d),
        potency_before=potency_before,
        potency_after=_members_potency(table, alive, regime),
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
    report = _greedy_reduce(pattern, level, branch, table,
                            heavy if branch == "large" else None)
    _check_dispatch_guarantees(pattern, level, report, total, table)
    return report


def _check_dispatch_guarantees(pattern: Pattern, level: float,
                               report: ReductionReport, total: float,
                               table: DeviationTable) -> None:
    g = table.graph
    kept = np.zeros(len(g.vertices), dtype=bool)
    kept[[g.index[v] for v in report.kept]] = True
    both = g.valid & kept[:, None] & kept[g.nbr]
    floor = total / 2.0 - 55.0 * level * math.sqrt(pattern.scale.d)
    # the kept sub-pattern's class graph is the induced subgraph and its
    # deviations are these, so this is peak_potency(pattern.restricted(kept))
    achieved = _peak(table.term[both & g.upper])
    if achieved < floor - 1e-9 * max(1.0, abs(floor)):
        raise LiftlabError("reduction lost more potency than its guarantee allows")
    n = pattern.scale.n
    gaps, which = np.unique(table.gap[both], return_inverse=True)
    rates = np.zeros(table.gap.shape)
    rates[both] = np.array([deviation_rate(gap) for gap in gaps.tolist()], dtype=float)[which]
    # mu is count * neighbour count / n, and fsum ignores the zeros
    lhs = [math.fsum(row) for row in (table.mu * rates).tolist()]
    for vertex in np.flatnonzero(kept).tolist():
        count = int(table.count[vertex])
        rhs = (level / 10.0) * count * math.log(math.e * n / count)
        if lhs[vertex] < rhs - 1e-9 * max(1.0, rhs):
            raise LiftlabError("kept vertex fails the local-unlikeliness bound")


# ---------------------------------------------------------------------------
# selection helpers


def dominant_neighbours(pattern: Pattern, members: Iterable[ClassVertex],
                        vertex: ClassVertex, regime: str,
                        level: float = 20.0) -> frozenset:
    """Neighbours of a vertex, within a member set, that carry the dominant
    share of its local potency in the chosen regime.

    In the large regime the cut is an absolute one on the gap-weight ratio;
    in the small regime it is relative to the vertex's own local potency.
    """
    member_set = set(members)
    if vertex not in member_set:
        raise VertexNotInUError(f"{vertex} is not in the member set")
    if regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}")
    table = DeviationTable(pattern)
    g = table.graph
    index = g.index[vertex]
    members = np.zeros(len(g.vertices), dtype=bool)
    members[[g.index[v] for v in member_set if v in g.index]] = True
    pick = (table.large if regime == "large" else table.small)[index] & members[g.nbr[index]]
    if not pick.any():
        return frozenset()
    others, gaps = g.nbr[index][pick], table.gap[index][pick]
    count, weight, square = (int(table.count[index]), float(table.weight[index]),
                             float(table.square[index]))
    n = pattern.scale.n
    d = pattern.scale.d
    if regime == "large":
        cut = level * n / (2.0 * count)
        chosen = gaps * square * d / table.square[others] >= cut
    else:
        local = abs(math.fsum(table.term[index][pick].tolist()))
        nb_mass = float(_vertex_sums(pattern, table)[0][index])
        if nb_mass == 0.0:
            return frozenset()
        cut = local / (2.0 * square * count * nb_mass)
        chosen = np.abs(gaps) / (weight * table.weight[others] * n) >= cut
    return frozenset(g.vertices[j] for j in others[chosen].tolist())


def measure_select(triples: Sequence[tuple[float, float, float]],
                   threshold: float) -> tuple[int, ...]:
    """Indices whose density ratio h/g is at least threshold times the
    measure-averaged ratio; the selected h-mass is then at least
    (1 - threshold) of the total h-mass."""
    if len(triples) == 0:
        raise EmptyInputError("no triples supplied")
    if not 0.0 < threshold < 1.0:
        raise ConfigError("threshold must lie strictly between 0 and 1")
    for mu, hv, gv in triples:
        if mu <= 0 or hv <= 0 or gv <= 0:
            raise LiftlabError("all triple entries must be positive")
    top = math.fsum(hv * mu for mu, hv, _ in triples)
    bottom = math.fsum(gv * mu for mu, _, gv in triples)
    cut = threshold * top / bottom
    return tuple(k for k, (mu, hv, gv) in enumerate(triples) if hv / gv >= cut)


# ---------------------------------------------------------------------------
# probability and counting bounds


def pattern_probability_bound(pattern: Pattern, kept: Iterable[ClassVertex],
                              level: float = 20.0) -> float:
    """Natural log of the occurrence-probability bound for the sub-pattern
    on the kept set: sum of (d/4) log(count) plus (1 - level/10) times the
    log binomial(n, count clipped to n/2), via log-gamma."""
    if level < 20.0:
        raise ConfigError("level must be at least 20")
    n = pattern.scale.n
    d = pattern.scale.d
    total = 0.0
    for vertex in kept:
        count = pattern.profile.counts.get(vertex)
        if count is None:
            raise InvalidPatternError(f"{vertex} is not a populated class")
        total += (d / 4.0) * math.log(count)
        clipped = min(count, n // 2)
        log_choose = (math.lgamma(n + 1) - math.lgamma(clipped + 1)
                      - math.lgamma(n - clipped + 1))
        total += (1.0 - level / 10.0) * log_choose
    return total


def pattern_count_bound(n: int, h: int, d: int, max_count: int) -> float:
    """Natural log of the counting bound log2(nh) * max_count^(2 h d log2 d)
    on patterns whose class sizes all stay below max_count."""
    if max_count < 1:
        raise ConfigError("max_count must be at least 1")
    if n * h < 2:
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
    if max_count < 1:
        raise ConfigError("max_count must be at least 1")
    base = base if base is not None else _default_base(h, d)
    if base.h != h or base.d != d:
        raise DimensionMismatchError("base does not match the stated (h, d)")
    scale = DyadicScale(n, h, d)
    cap = 10 * n * h
    width = d.bit_length() - 1  # widest exponent offset within one band
    anchors = []
    exp = 0
    while 4 ** exp <= cap:
        anchors.append(exp)
        exp += 1
    size_limit = min(max_count - 1, n)
    raw = len(anchors) * (size_limit + 1) ** (h * (width + 1))
    if raw > 20 * guard:
        raise TooLargeError("pattern enumeration would take too many steps")
    seen: set = set()
    for anchor in anchors:
        exps = [anchor + t for t in range(width + 1) if 4 ** (anchor + t) <= cap]
        slots = [(i, e) for i in range(h) for e in exps]
        for sizes in itertools.product(range(size_limit + 1), repeat=len(slots)):
            counts = {slot: c for slot, c in zip(slots, sizes) if c > 0}
            if sum(c * 4 ** e for (_, e), c in counts.items()) > cap:
                continue
            per_fibre: Counter = Counter()
            for (i, _), c in counts.items():
                per_fibre[i] += c
            if any(total > n for total in per_fibre.values()):
                continue
            profile = ClassProfile(scale, counts)
            pairs = []
            verts = sorted(counts)
            for u, v in itertools.combinations(verts, 2):
                if base.are_adjacent(u[0], v[0]) and 4 ** abs(u[1] - v[1]) < d:
                    pairs.append(((u, v), min(counts[u], counts[v])))
            profile_key = tuple(sorted(counts.items()))
            for link_values in itertools.product(
                    *(range(m + 1) for _, m in pairs)):
                links = {pair: val for (pair, _), val in zip(pairs, link_values)
                         if val > 0}
                Pattern(base, profile, links)
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
        if kind == "class":
            counts[tuple(values[:2])] = values[2]
        elif kind == "link":
            links[(tuple(values[:2]), tuple(values[2:4]))] = values[4]
        else:
            header[kind] = values[0]
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
