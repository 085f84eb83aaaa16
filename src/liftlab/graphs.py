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
"""

from __future__ import annotations

import json
import math
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


@dataclass(frozen=True)
class BaseGraph:
    """A simple d-regular graph on vertices 0..h-1.

    Edges are stored as sorted tuples (u, v) with u < v, in sorted order.
    """

    h: int
    edges: tuple[tuple[int, int], ...]
    degree: int = field(init=False)

    def __post_init__(self):
        if self.h < 1:
            raise LiftlabError("base graph needs at least one vertex")
        seen = set()
        deg = [0] * self.h
        canon = []
        for (u, v) in self.edges:
            if u == v:
                raise SelfLoopError(f"edge ({u},{v}) is a loop")
            if not (0 <= u < self.h and 0 <= v < self.h):
                raise LiftlabError(f"edge ({u},{v}) out of range for h={self.h}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise DuplicateEdgeError(f"edge {e} repeated")
            seen.add(e)
            deg[u] += 1
            deg[v] += 1
            canon.append(e)
        if len(set(deg)) > 1:
            raise NonRegularError(f"degrees {sorted(set(deg))} differ")
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        object.__setattr__(self, "degree", deg[0] if deg else 0)
        if self.degree < 1:
            raise NonRegularError("degree must be at least 1")
        nbrs = [[] for _ in range(self.h)]
        for (u, v) in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "_neighbours", tuple(tuple(sorted(x)) for x in nbrs))
        object.__setattr__(self, "_edge_set", frozenset(self.edges))

    @property
    def d(self) -> int:
        return self.degree

    def neighbours(self, i: int) -> list[int]:
        return list(self._neighbours[i])

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.h, self.h))
        for (u, v) in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def are_adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set


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
    edges = set()
    for i in range(h):
        for j in range(1, k + 1):
            edges.add(tuple(sorted((i, (i + j) % h))))
    return BaseGraph(h, tuple(sorted(edges)))


def petersen_graph() -> BaseGraph:
    """The Petersen graph: outer 5-cycle, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return BaseGraph(10, tuple(tuple(sorted(e)) for e in edges))


def base_from_name(name: str) -> BaseGraph:
    """Resolve a named family: 'k5', 'c7', 'c9p2', 'petersen'."""
    name = name.strip().lower()
    if name == "petersen":
        return petersen_graph()
    if name.startswith("k"):
        return complete_graph(int(name[1:]))
    if name.startswith("c"):
        if "p" in name:
            hh, kk = name[1:].split("p")
            return cycle_power_graph(int(hh), int(kk))
        return cycle_graph(int(name[1:]))
    raise LiftlabError(f"unknown base graph name: {name!r}")


# ---------------------------------------------------------------------------
# base graph text serialization: first line "h m", then one "u v" per edge


def base_to_text(base: BaseGraph) -> str:
    lines = [f"{base.h} {len(base.edges)}"]
    lines += [f"{u} {v}" for (u, v) in base.edges]
    return "\n".join(lines) + "\n"


def base_from_text(text: str) -> BaseGraph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not rows:
        raise LiftlabError("empty base graph text")
    h, m = (int(t) for t in rows[0].split())
    if len(rows) - 1 != m:
        raise LiftlabError(f"expected {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        u, v = (int(t) for t in ln.split())
        edges.append((u, v))
    return BaseGraph(h, tuple(edges))


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


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
        if n < 1:
            raise LiftlabError("n must be at least 1")
        self.base = base
        self.n = n
        want = set(base.edges)
        got = set(perms)
        if want != got:
            raise LiftlabError("permutation keys do not match base edges")
        self.perms: dict[tuple[int, int], np.ndarray] = {}
        ref = np.arange(n)
        for e, p in perms.items():
            arr = np.asarray(p, dtype=np.int64)
            if arr.shape != (n,) or not np.array_equal(np.sort(arr), ref):
                raise LiftlabError(f"permutation for edge {e} is not a bijection on 0..{n - 1}")
            arr.setflags(write=False)
            self.perms[e] = arr
        self._inverse: dict[tuple[int, int], np.ndarray] = {}

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
        """Inverse of perms[edge], cached: maps fibre-v positions back to fibre-u."""
        inv = self._inverse.get(edge)
        if inv is None:
            p = self.perms[edge]
            inv = np.empty_like(p)
            inv[p] = np.arange(self.n)
            inv.setflags(write=False)
            self._inverse[edge] = inv
        return inv

    def neighbours(self, i: int, j: int) -> list[tuple[int, int]]:
        out = []
        for (u, v) in self.base.edges:
            if u == i:
                out.append((v, int(self.perms[(u, v)][j])))
            elif v == i:
                out.append((u, int(self.inverse_perm((u, v))[j])))
        return out

    def edge_pairs(self):
        """Yield every lifted edge once as ((u, j), (v, perm[j]))."""
        for (u, v), p in self.perms.items():
            for j in range(self.n):
                yield (u, j), (v, int(p[j]))

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
        doc = json.loads(text)
        try:
            base = BaseGraph(_json_int(doc["base"]["h"]),
                             tuple(tuple(_json_int(t) for t in e) for e in doc["base"]["edges"]))
            perms = {}
            for key, arr in doc["perms"].items():
                u, v = _edge_key(key)
                perm = np.asarray(arr)
                if perm.dtype.kind not in "iu":
                    raise TypeError(f"permutation {key!r} must list integers")
                perms[(u, v)] = perm
            return cls(base, _json_int(doc["n"]), perms)
        except KeyError as exc:
            raise ConfigError(f"malformed lift JSON: missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError, LiftlabError) as exc:
            raise ConfigError(f"malformed lift JSON: {exc}") from exc

    def canonical_key(self) -> tuple:
        """Hashable identity used when counting distinct lifts."""
        return tuple((e, tuple(int(x) for x in self.perms[e])) for e in self.base.edges)


def identity_lift(base: BaseGraph, n: int) -> Lift:
    """The lift in which every matching is the identity (n disjoint copies of H)."""
    eye = np.arange(n)
    return Lift(base, n, {e: eye.copy() for e in base.edges})


# ---------------------------------------------------------------------------


class LiftVector:
    """A real vector indexed by lift vertices, stored as an (h, n) array.

    Fibre sums and the squared norm are computed once with compensated
    summation and cached; ``balanced`` means every fibre sums to zero.
    """

    __slots__ = ("values", "_norm_sq", "_fibre_sums")

    def __init__(self, values: np.ndarray):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise DimensionMismatchError("LiftVector expects an (h, n) array")
        arr.setflags(write=False)
        self.values = arr
        self._fibre_sums = np.array([math.fsum(row) for row in arr])
        self._fibre_sums.setflags(write=False)
        self._norm_sq = math.fsum(float(t) for t in (arr * arr).sum(axis=1))

    @classmethod
    def zeros(cls, lift: Lift) -> "LiftVector":
        return cls(np.zeros((lift.h, lift.n)))

    @classmethod
    def from_flat(cls, flat: np.ndarray, h: int, n: int) -> "LiftVector":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (h * n,):
            raise DimensionMismatchError(f"expected flat length {h * n}")
        return cls(flat.reshape(h, n))

    @property
    def h(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def norm_sq(self) -> float:
        return self._norm_sq

    @property
    def fibre_sums(self) -> np.ndarray:
        return self._fibre_sums

    def is_balanced(self, tol: float = 1e-9) -> bool:
        scale = max(1.0, math.sqrt(self._norm_sq))
        return bool(np.all(np.abs(self._fibre_sums) <= tol * scale))

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __add__(self, other: "LiftVector") -> "LiftVector":
        return LiftVector(self.values + other.values)

    def __sub__(self, other: "LiftVector") -> "LiftVector":
        return LiftVector(self.values - other.values)

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


# -- raw-array operator kernels (used by the iterative eigensolver too) -----


def _adjacency_raw(lift: Lift, arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    for (u, v), p in lift.perms.items():
        out[u] += arr[v, p]
        out[v, p] += arr[u]
    return out


def _expected_raw(lift: Lift, arr: np.ndarray, fibre_sums: np.ndarray | None = None) -> np.ndarray:
    s = arr.sum(axis=1) if fibre_sums is None else fibre_sums
    acc = np.zeros(lift.h)
    for (u, v) in lift.base.edges:
        acc[u] += s[v]
        acc[v] += s[u]
    return np.repeat(acc[:, None] / lift.n, lift.n, axis=1)


def _centered_raw(lift: Lift, arr: np.ndarray) -> np.ndarray:
    return _adjacency_raw(lift, arr) - _expected_raw(lift, arr)


def apply_adjacency(lift: Lift, x: LiftVector) -> LiftVector:
    """Multiply by the lifted graph's adjacency operator."""
    check_shape(lift, x)
    return LiftVector(_adjacency_raw(lift, x.values))


def apply_expected(lift: Lift, x: LiftVector) -> LiftVector:
    """Multiply by the expected adjacency (1/n between adjacent fibres).

    Costs O(nh + hd) using the vector's cached fibre sums.
    """
    check_shape(lift, x)
    return LiftVector(_expected_raw(lift, x.values, x.fibre_sums))


def apply_centered(lift: Lift, x: LiftVector) -> LiftVector:
    """Multiply by adjacency minus expected adjacency."""
    check_shape(lift, x)
    return LiftVector(
        _adjacency_raw(lift, x.values) - _expected_raw(lift, x.values, x.fibre_sums)
    )


OPERATOR_KINDS = ("adjacency", "expected", "centered")


def apply_operator(lift: Lift, kind: str, x: LiftVector) -> LiftVector:
    if kind == "adjacency":
        return apply_adjacency(lift, x)
    if kind == "expected":
        return apply_expected(lift, x)
    if kind == "centered":
        return apply_centered(lift, x)
    raise LiftlabError(f"unknown operator kind {kind!r}")


def lifted_eigenvector(lift: Lift, base_vec: np.ndarray) -> LiftVector:
    """Pull an eigenvector of H back through the covering map (constant on fibres)."""
    base_vec = np.asarray(base_vec, dtype=np.float64)
    if base_vec.shape != (lift.h,):
        raise DimensionMismatchError("base vector length must equal h")
    return LiftVector(np.repeat(base_vec[:, None], lift.n, axis=1))


def dense_operator(lift: Lift, kind: str = "adjacency", guard: int = DENSE_GUARD) -> np.ndarray:
    """Assemble the chosen operator as a dense (nh, nh) array; guarded by size."""
    nh = lift.num_vertices
    if nh > guard:
        raise DenseGuardError(f"dense operator of size {nh} exceeds guard {guard}")
    n = lift.n
    mat = np.zeros((nh, nh))
    if kind in ("adjacency", "centered"):
        for (u, v), p in lift.perms.items():
            for j in range(n):
                a = u * n + j
                b = v * n + int(p[j])
                mat[a, b] += 1.0
                mat[b, a] += 1.0
    if kind in ("expected", "centered"):
        sign = 1.0 if kind == "expected" else -1.0
        for (u, v) in lift.base.edges:
            blk = sign / n
            mat[u * n:(u + 1) * n, v * n:(v + 1) * n] += blk
            mat[v * n:(v + 1) * n, u * n:(u + 1) * n] += blk
    return mat


def induced_adjacency(lift: Lift, vertices: list[tuple[int, int]]) -> np.ndarray:
    """Dense adjacency of the subgraph induced on the given (fibre, pos) list."""
    index = {v: k for k, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise LiftlabError("induced subgraph vertices must be distinct")
    m = np.zeros((len(vertices), len(vertices)))
    for (u, v), p in lift.perms.items():
        for j in range(lift.n):
            a = index.get((u, j))
            if a is None:
                continue
            b = index.get((v, int(p[j])))
            if b is None:
                continue
            m[a, b] = 1.0
            m[b, a] = 1.0
    return m
