"""Seeded sampling of uniform random lifts, and clique planting.

Each base edge gets its own RNG stream derived from (seed, stream, edge
index), so the permutations are independent and the result does not depend
on the order in which edges are processed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FibresNotAdjacentError, FibresNotDistinctError, LiftlabError
from .graphs import BaseGraph, Lift, _check_fibre_size, _int64_items, _is_int, _permutation_array


@dataclass(frozen=True)
class SeededRng:
    """Reproducible randomness source: same (seed, stream) -> same draws."""

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if not all(_is_int(k) and k >= 0 for k in (self.seed, self.stream)):
            raise ConfigError(f"seed {self.seed!r} and stream {self.stream!r} must be ints >= 0")

    def generator(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream) + extra))


def _check_clique_fibres(base: BaseGraph, fibres: list[int]) -> list[int]:
    """The fibres as ints, checked to be distinct, in range and pairwise adjacent
    in the base; else FibresNotDistinctError, LiftlabError or FibresNotAdjacentError,
    in that order. A fibre out of range is named as given."""
    ids = _int64_items(fibres, LiftlabError, "fibres must be integers").tolist()
    if len(set(fibres)) != len(fibres):  # as given: ints beyond int64 clip alike
        raise FibresNotDistinctError("fibre ids must be distinct")
    for given, i in zip(fibres, ids):
        if not 0 <= i < base.h:
            raise LiftlabError(f"fibre {given} out of range 0..{base.h - 1}")
    for a, b in itertools.combinations(ids, 2):
        if not base.are_adjacent(a, b):
            raise FibresNotAdjacentError(f"fibres {a} and {b} are not adjacent in the base")
    return ids


def sample_lift(base: BaseGraph, n: int, rng: SeededRng) -> Lift:
    """Draw a uniform random n-lift: one uniform matching per base edge.

    Each permutation comes from its own child stream keyed by the edge's
    position in the sorted edge list, so samples are deterministic in
    (seed, stream) and independent across edges.
    """
    _check_fibre_size(n)
    perms = {e: _permutation_array(n, rng.generator(k).permutation) for k, e in enumerate(base.edges)}
    return Lift._valid(base, n, perms)


def plant_clique(lift: Lift, fibres: list[int]) -> Lift:
    """Force position 0 of each listed fibre into a mutual clique.

    For each pair of listed fibres the matching is composed with the
    transposition that sends position 0 to position 0; other positions of
    that matching move only as far as the swap requires, and matchings not
    between listed fibres are shared with the input. The construction is deterministic.
    """
    fibres = _check_clique_fibres(lift.base, fibres)
    new_perms = {e: lift.perms[e] for e in lift.base.edges}
    for a, b in itertools.combinations(sorted(fibres), 2):
        p = new_perms[(a, b)] = new_perms[(a, b)].copy()
        j = int(np.nonzero(p == 0)[0][0])
        p[j], p[0] = p[0], p[j]
    return Lift._valid(lift.base, lift.n, new_perms)
