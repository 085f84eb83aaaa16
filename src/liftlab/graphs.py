"""Regular base graphs, permutation lifts, and fibre-indexed vectors.

A lift replaces every vertex of a d-regular base graph H by a fibre of n
vertices and every base edge by a perfect matching between the two fibres.
Vertex (i, j) is fibre i, position j; the flat index is i*n + j.

Three symmetric operators act on vectors indexed this way:

* the adjacency operator of the lifted graph,
* its entrywise expectation under the uniform-matching model (1/n between
  any two vertices in adjacent fibres), and
* the centered operator, adjacency minus expectation, whose extreme
  eigenvalues on the balanced subspace are the object of interest.

Each operator kind has one raw kernel, which ``_kernel`` looks up. A vector
caches only its squared norm.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DenseGuardError,
    DimensionMismatchError,
    DuplicateEdgeError,
    LiftlabError,
    NonRegularError,
    SelfLoopError,
)

DENSE_GUARD = 2000


def _is_int(value) -> bool:
    """Whether a scalar is an integer and not a bool, as ``_read_int64s`` reads each entry."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether a scalar is a real number, not a bool, within the finite floats."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _check_count(value, name: str) -> None:
    """Raise ConfigError unless a count (trials, samples, max_count) is an integer
    (not a bool) of at least 1."""
    if not (_is_int(value) and value >= 1):
        raise ConfigError(f"{name} must be an integer of at least 1, not {value!r}")


def _check_fibre_size(n) -> None:
    """Raise ConfigError unless n is an integer (not a bool) in 1..2**63 - 1."""
    if not (_is_int(n) and 1 <= n < 2**63):
        raise ConfigError(f"n must be an integer at least 1 and below 2**63, not {n!r}")


def _permutation_array(n: int, make) -> np.ndarray:
    """make(n), an array of n entries, or MemoryError naming n: numpy refuses n * 8
    bytes, or near 2**63 wraps that count to a short array."""
    try:
        perm = make(n)
    except ValueError:
        perm = ()
    if len(perm) < n:
        raise MemoryError(f"no array holds a permutation of n = {n}")
    return perm


def _read_int64s(values) -> tuple[np.ndarray | None, bool]:
    """The values as an int64 array of their shape, or None unless all are integers
    (not bools), and whether they came as nested tuples or lists of Python ints,
    read level by level, by the types and lengths of each level's entries. An integer
    beyond int64 is clipped to +-2**62, where it fails the range checks it fails unclipped."""
    shape, level = [], [values]
    while set(map(type, level)) <= {tuple, list} and len(lengths := set(map(len, level))) == 1:
        shape.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
    if set(map(type, level)) == {int}:
        try:
            return np.fromiter(level, np.int64, len(level)).reshape(shape), True
        except OverflowError:  # beyond int64: clipped below
            pass
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        return None, False
    kind = array.dtype.kind
    integer = array.size == 0 or kind == "i" or kind == "u" and array.itemsize < 8
    if isinstance(values, np.ndarray) and integer:
        return array.astype(np.int64), False
    for _ in range(array.ndim - len(shape)):  # below where the walk stopped, as in an array
        level = list(itertools.chain.from_iterable(level))
    if not all(issubclass(t, numbers.Integral) and t is not bool for t in set(map(type, level))):
        return None, False
    return (array if integer else array.astype(object).clip(-2 ** 62, 2 ** 62)).astype(np.int64), False


def _int64s(values, error: type[LiftlabError], message: str) -> np.ndarray:
    """``_read_int64s``' array, else ``error(message)``."""
    array = _read_int64s(values)[0]
    if array is None:
        raise error(message)
    return array


def _int64_items(values, error: type[LiftlabError], message: str,
                 shape: tuple[int, ...] = ()) -> np.ndarray:
    """``_read_int64s``' array of a sequence of items of the given shape, else ``error(message)``."""
    array = _read_int64s(list(values) or np.zeros((0, *shape), np.int64))[0]
    if array is None or array.shape[1:] != shape:
        raise error(message)
    return array


@dataclass(frozen=True)
class BaseGraph:
    """A simple d-regular graph on vertices 0..h-1.

    Edges are stored as sorted tuples (u, v) with u < v, in sorted order; a
    tuple already in that form is kept as given.
    """

    h: int
    edges: tuple[tuple[int, int], ...]
    degree: int = field(init=False)

    def __post_init__(self):
        if not _is_int(self.h):
            raise LiftlabError(f"the vertex count must be an integer, not {self.h!r}")
        if self.h < 1:
            raise LiftlabError("base graph needs at least one vertex")
        if 2 * len(self.edges) < self.h:  # checked before anything is sized by h
            raise NonRegularError("degree must be at least 1")
        edges, h = tuple(self.edges), self.h
        pairs, plain = _read_int64s(edges)
        if np.shape(pairs) != (len(edges), 2):  # the edges before the first malformed one decide first
            cut = next((i for i, e in enumerate(edges) if np.shape(_read_int64s(e)[0]) != (2,)), len(edges))
            pairs, plain = _read_int64s(edges[:cut] or np.zeros((0, 2), np.int64))
        u, v = pairs.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        inside = (lo >= 0) & (hi < h)
        key = np.where(inside & (lo < hi), lo.clip(0, h - 1) * h + hi.clip(0, h - 1), -1)
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(key.size, dtype=bool)
        repeat[order[1:]] = (key[order[1:]] == key[order[:-1]]) & (key[order[1:]] >= 0)
        problem = np.select([u == v, ~inside, repeat], [1, 2, 3])
        if problem.any():
            first = int(np.flatnonzero(problem)[0])
            a, b = edges[first]
            raise (SelfLoopError(f"edge ({a},{b}) is a loop"),
                   LiftlabError(f"edge ({a},{b}) out of range for h={h}"),
                   DuplicateEdgeError(f"edge {(min(a, b), max(a, b))} repeated"))[problem[first] - 1]
        if len(pairs) < len(edges):
            raise LiftlabError("edges must be pairs of integer vertices")
        degrees = np.bincount(pairs.ravel(), minlength=h)
        if (degrees != degrees[0]).any():
            raise NonRegularError(f"degrees {np.unique(degrees).tolist()} differ")
        if not (plain and type(self.edges) is tuple and (u < v).all() and (key[1:] > key[:-1]).all()
                and set(map(type, edges)) == {tuple}):
            order = np.argsort(key)
            object.__setattr__(self, "edges", tuple(zip(lo[order].tolist(), hi[order].tolist())))
        object.__setattr__(self, "degree", int(degrees[0]))
        ends, others = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        index = np.ascontiguousarray(others[np.lexsort((others, ends))].reshape(h, -1).T)
        index.setflags(write=False)  # column u lists u's neighbours ascending
        object.__setattr__(self, "_neighbour_index", index)

    @property
    def d(self) -> int:
        return self.degree

    def neighbour_index(self) -> np.ndarray:
        """(d, h): entry [k, u] is u's k-th neighbour, ascending as in the sorted edges."""
        return self._neighbour_index

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.h, self.h))
        a[self._neighbour_index, np.arange(self.h)] = 1.0
        return a

    def are_adjacent(self, u: int, v: int) -> bool:
        return 0 <= u < self.h and v in self._neighbour_index[:, u]


def complete_graph(k: int) -> BaseGraph:
    """The complete graph on k vertices (degree k-1)."""
    return BaseGraph(k, tuple((u, v) for u in range(k) for v in range(u + 1, k)))


def cycle_graph(h: int) -> BaseGraph:
    """The cycle on h >= 3 vertices (degree 2)."""
    if h < 3:
        raise LiftlabError("cycle needs h >= 3")
    return BaseGraph(h, tuple(sorted((i, (i + 1) % h)) for i in range(h)))


def cycle_power_graph(h: int, k: int) -> BaseGraph:
    """Cycle on h vertices with edges to the k nearest on each side (degree 2k)."""
    if h < 2 * k + 1:
        raise LiftlabError("cycle power needs h >= 2k+1")
    return BaseGraph(h, tuple((i, (i + j) % h) for i in range(h) for j in range(1, k + 1)))


def petersen_graph() -> BaseGraph:
    """The Petersen graph: outer 5-cycle, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return BaseGraph(10, tuple(edges))


def base_from_name(name: str) -> BaseGraph:
    """Resolve a named family: 'k5', 'c7', 'c9p2', 'petersen'; any other name
    raises ConfigError."""
    name = str(name).strip().lower()
    try:
        if name == "petersen":
            return petersen_graph()
        if name.startswith("k"):
            return complete_graph(int(name[1:]))
        if name.startswith("c"):
            if "p" in name:
                hh, kk = name[1:].split("p")
                return cycle_power_graph(int(hh), int(kk))
            return cycle_graph(int(name[1:]))
    except (ValueError, LiftlabError) as exc:
        raise ConfigError(f"bad base graph name {name!r}: {exc}") from exc
    raise ConfigError(f"unknown base graph name: {name!r}")


# ---------------------------------------------------------------------------
# base graph text serialization: first line "h m", then one "u v" per edge


def base_from_text(text: str) -> BaseGraph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    try:
        if not rows:
            raise LiftlabError("empty base graph text")
        h, m = (int(t) for t in rows[0].split())
        if len(rows) - 1 != m:
            raise LiftlabError(f"expected {m} edges, found {len(rows) - 1}")
        # BaseGraph checks that each edge is a pair of integers
        return BaseGraph(h, tuple(tuple(int(t) for t in ln.split()) for ln in rows[1:]))
    except (ValueError, LiftlabError) as exc:
        raise ConfigError(f"malformed base graph text: {exc}") from exc


def _edge_key(key: str) -> tuple[int, int]:
    parts = key.split("-")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ValueError(f"edge key {key!r} is not of the form 'u-v'")
    return int(parts[0]), int(parts[1])


# ---------------------------------------------------------------------------


class Lift:
    """An n-lift of a base graph: one permutation per base edge.

    ``perms[(u, v)]`` (with u < v) maps fibre-u positions to fibre-v
    positions, so vertex (u, j) is adjacent to (v, perm[j]).
    """

    def __init__(self, base: BaseGraph, n: int, perms: dict[tuple[int, int], np.ndarray]):
        _check_fibre_size(n)
        if set(base.edges) != set(perms):
            raise LiftlabError("permutation keys do not match base edges")
        checked = {}
        for e, p in perms.items():
            arr = _int64s(p, LiftlabError, f"permutation for edge {e} must list integers")
            if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
                raise LiftlabError(f"permutation for edge {e} is not a bijection on 0..{n - 1}")
            checked[e] = arr
        self._store(base, n, checked)

    def _store(self, base: BaseGraph, n: int, perms: dict[tuple[int, int], np.ndarray]) -> None:
        for p in perms.values():
            p.setflags(write=False)
        self.base, self.n, self.perms = base, n, perms
        self._neighbour_index: np.ndarray | None = None

    @classmethod
    def _valid(cls, base: BaseGraph, n: int, perms: dict[tuple[int, int], np.ndarray]) -> "Lift":
        """The lift of int64 bijections on 0..n-1, one per base edge, that the caller
        made valid, stored unchecked and uncopied (``__init__`` checks outside ones)."""
        lift = cls.__new__(cls)
        lift._store(base, n, perms)
        return lift

    @property
    def h(self) -> int:
        return self.base.h

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def num_vertices(self) -> int:
        return self.base.h * self.n

    def inverse_perm(self, edge: tuple[int, int]) -> np.ndarray:
        """Inverse of perms[edge], read-only: maps fibre-v positions back to fibre-u."""
        p = self.perms[edge]
        inv = np.empty_like(p)
        inv[p] = np.arange(self.n)
        inv.setflags(write=False)
        return inv

    def neighbour_index(self) -> np.ndarray:
        """(h, d, n) flat indices, cached: entry [u, k, j] is the k-th neighbour
        of vertex (u, j), each fibre's slots in ``perms`` order. A read-only view;
        its ``base``, writeable, is what the adjacency kernel gathers through."""
        if self._neighbour_index is None:
            slots = [[] for _ in range(self.h)]
            for (u, v), p in self.perms.items():
                slots[u].append(v * self.n + p)
                slots[v].append(u * self.n + self.inverse_perm((u, v)))
            self._neighbour_index = np.array(slots).view()
            self._neighbour_index.setflags(write=False)
        return self._neighbour_index

    # -- JSON serialization -------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "base": {"h": self.base.h, "edges": [list(e) for e in self.base.edges]},
            "n": self.n,
            "perms": {f"{u}-{v}": self.perms[(u, v)].tolist() for (u, v) in self.base.edges},
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "Lift":
        """Inverse of to_json.  Missing keys, wrongly typed values, malformed
        "u-v" keys and documents that describe no valid lift raise ConfigError."""
        try:
            doc = json.loads(text)
            base = BaseGraph(doc["base"]["h"], tuple(map(tuple, doc["base"]["edges"])))
            perms = {_edge_key(key): arr for key, arr in doc["perms"].items()}
            return cls(base, doc["n"], perms)
        except KeyError as exc:
            raise ConfigError(f"malformed lift JSON: missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError, LiftlabError) as exc:
            raise ConfigError(f"malformed lift JSON: {exc}") from exc


def identity_lift(base: BaseGraph, n: int) -> Lift:
    """The lift in which every matching is the identity (n disjoint copies of H)."""
    _check_fibre_size(n)
    eye = _permutation_array(n, lambda m: np.arange(m, dtype=np.int64))
    return Lift._valid(base, n, {e: eye for e in base.edges})


# ---------------------------------------------------------------------------


class LiftVector:
    """A real vector indexed by lift vertices, stored as an (h, n) array.

    The squared norm is computed with compensated summation on first access
    and cached; ``balanced`` means every fibre sums to zero.
    """

    __slots__ = ("values", "_norm_sq")

    def __init__(self, values: np.ndarray):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise DimensionMismatchError("LiftVector expects an (h, n) array")
        arr.setflags(write=False)
        self.values = arr
        self._norm_sq = None

    @property
    def h(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def norm_sq(self) -> float:
        if self._norm_sq is None:
            self._norm_sq = math.fsum((self.values * self.values).sum(axis=1).tolist())
        return self._norm_sq

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def scaled(self, c: float) -> "LiftVector":
        return LiftVector(self.values * c)


def check_shape(lift: Lift, x: LiftVector) -> None:
    if x.values.shape != (lift.h, lift.n):
        raise DimensionMismatchError(
            f"vector shape {x.values.shape} does not match lift ({lift.h}, {lift.n})"
        )


def balance(x: LiftVector) -> LiftVector:
    """Project onto the balanced subspace by removing each fibre's mean."""
    return LiftVector(x.values - x.values.mean(axis=1, keepdims=True))


# -- raw-array operator kernels: every entry point reaches one through ``_kernel``,
# and Lanczos and the certificate trials call ``_centered_raw`` itself. Each takes
# an (h, n) array or a (k, h, n) stack, and applies to each slice of a stack the
# operations, in the order, that it applies to a single array. The adjacency
# gathers each vertex's d neighbours and adds them from 0.0 in ``perms`` order,
# and the expectation adds the fibre sums of each fibre's base neighbours from
# 0.0 in edge order, so every entry gets the sum a per-edge loop would give; it
# returns that value once per fibre, as an (..., h, 1) column that broadcasts.


def _adjacency_raw(lift: Lift, arr: np.ndarray) -> np.ndarray:
    flat = arr.reshape(*arr.shape[:-2], -1)
    # through the writeable base: numpy's take copies a read-only index on every call
    return np.add.reduce(flat.take(lift.neighbour_index().base, axis=-1), axis=-2, initial=0.0)


def _expected_raw(lift: Lift, arr: np.ndarray) -> np.ndarray:
    acc = np.add.reduce(arr.sum(axis=-1)[..., lift.base.neighbour_index()], axis=-2, initial=0.0)
    return acc[..., None] / lift.n


def _centered_raw(lift: Lift, arr: np.ndarray) -> np.ndarray:
    return _adjacency_raw(lift, arr) - _expected_raw(lift, arr)


def _kernel(kind: str):
    """The raw kernel of an operator kind, else LiftlabError. Looked up at each
    call, so a wrapper set on a kernel's module attribute sees every call."""
    kernels = {"adjacency": _adjacency_raw, "expected": _expected_raw, "centered": _centered_raw}
    if not isinstance(kind, str) or kind not in kernels:
        raise LiftlabError(f"unknown operator kind {kind!r}")
    return kernels[kind]


def apply_operator(lift: Lift, kind: str, x: LiftVector) -> LiftVector:
    """Multiply by the chosen operator: "adjacency", "expected" or "centered"."""
    kernel = _kernel(kind)
    check_shape(lift, x)
    return LiftVector(np.broadcast_to(kernel(lift, x.values), x.values.shape))


def apply_adjacency(lift: Lift, x: LiftVector) -> LiftVector:
    """Multiply by the lifted graph's adjacency operator."""
    return apply_operator(lift, "adjacency", x)


def apply_expected(lift: Lift, x: LiftVector) -> LiftVector:
    """Multiply by the expected adjacency (1/n between adjacent fibres), in O(nh + hd)."""
    return apply_operator(lift, "expected", x)


def apply_centered(lift: Lift, x: LiftVector) -> LiftVector:
    """Multiply by adjacency minus expected adjacency."""
    return apply_operator(lift, "centered", x)


def lifted_eigenvector(lift: Lift, base_vec: np.ndarray) -> LiftVector:
    """Pull an eigenvector of H back through the covering map (constant on fibres)."""
    base_vec = np.asarray(base_vec, dtype=np.float64)
    if base_vec.shape != (lift.h,):
        raise DimensionMismatchError("base vector length must equal h")
    return LiftVector(np.repeat(base_vec[:, None], lift.n, axis=1))


def dense_operator(lift: Lift, kind: str = "adjacency") -> np.ndarray:
    """Assemble the chosen operator as a dense (nh, nh) array; guarded by size."""
    _kernel(kind)
    nh = lift.num_vertices
    if nh > DENSE_GUARD:
        raise DenseGuardError(f"dense operator of size {nh} exceeds guard {DENSE_GUARD}")
    n = lift.n
    mat = np.zeros((nh, nh))
    if kind in ("adjacency", "centered"):
        mat[np.arange(nh)[:, None], lift.neighbour_index().transpose(0, 2, 1).reshape(nh, -1)] = 1.0
    if kind in ("expected", "centered"):  # each entry gains +-1/n, or +-0.0, once
        blocks = mat.reshape(lift.h, n, lift.h, n)
        sign = 1.0 if kind == "expected" else -1.0
        blocks += sign / n * lift.base.adjacency()[:, None, :, None]
    return mat


def induced_adjacency(lift: Lift, vertices: list[tuple[int, int]]) -> np.ndarray:
    """Dense adjacency of the subgraph induced on the given (fibre, pos) list,
    gathered through the lift's neighbour index."""
    fibre, pos = _int64_items(vertices, LiftlabError,
                              "induced subgraph vertices must be integer pairs", (2,)).T
    if not ((0 <= fibre) & (fibre < lift.h) & (0 <= pos) & (pos < lift.n)).all():
        raise LiftlabError(f"induced subgraph vertices must lie in fibres 0..{lift.h - 1}"
                           f" at positions 0..{lift.n - 1}")
    where = np.full(lift.num_vertices, -1)
    where[fibre * lift.n + pos] = np.arange(fibre.size)
    if np.count_nonzero(where >= 0) != fibre.size:
        raise LiftlabError("induced subgraph vertices must be distinct")
    nbr = where[lift.neighbour_index()[fibre, :, pos]]  # (k, d) neighbour rows, -1 outside
    m = np.zeros((fibre.size, fibre.size))
    m[np.nonzero(nbr >= 0)[0], nbr[nbr >= 0]] = 1.0
    return m
