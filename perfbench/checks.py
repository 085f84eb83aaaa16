"""Output checks: recorded reference rows and transcripts, and an independent
dense cross-check of lambda_star.

The reference (reference.json, written by record.py) holds, for every input
the workloads can draw, the CSV row without wall_ms or the sha256 of each
reduction transcript. Floating-point CSV fields must agree within the
reference's stated tolerance; every other field, and every transcript,
must agree byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# CSV fields compared within tolerance; all other fields compare exactly.
FLOAT_FIELDS = frozenset({"lambda_top", "lambda_star", "ramanujan_ratio",
                          "paper_ratio", "z_value", "retention_slack"})

# Relative tolerance of the dense cross-check: the dense path's witness is
# an eigenvector to machine precision, so its Rayleigh quotient matches
# eigvalsh far inside this.
CROSS_CHECK_RTOL = 1e-9


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def compare_row(columns, expected: str, actual: str, rtol: float, atol: float) -> list[str]:
    """Mismatches between two CSV rows over the given columns."""
    want = expected.split(",")
    got = actual.split(",")
    if len(want) != len(columns) or len(got) != len(columns):
        return [f"row has {len(got)} fields, reference {len(want)}, columns {len(columns)}"]
    out = []
    for name, a, b in zip(columns, want, got):
        if name in FLOAT_FIELDS and a and b:
            ok = close(float(a), float(b), rtol, atol)
        else:
            ok = a == b
        if not ok:
            out.append(f"{name}: {b} != reference {a}")
    return out


def compare_digests(expected: dict, actual: dict) -> list[str]:
    return [f"{name} transcript changed" for name in sorted(expected)
            if actual.get(name) != expected[name]]


def balanced_extreme(lift) -> float:
    """Largest-modulus eigenvalue of the lift's adjacency restricted to
    fibre-balanced vectors, by numpy.linalg.eigvalsh.

    Built here from the permutations alone, with an orthonormal balanced
    basis from a QR factorisation, so it shares no code with the library's
    dense path.
    """
    n, h = lift.n, lift.h
    size = n * h
    adj = np.zeros((size, size))
    rows = np.arange(n)
    for (u, v), perm in lift.perms.items():
        adj[u * n + rows, v * n + np.asarray(perm)] += 1.0
    adj = adj + adj.T
    centred = np.eye(n) - 1.0 / n
    basis, _ = np.linalg.qr(centred[:, : n - 1])
    blocks = np.kron(np.eye(h), basis)
    restricted = blocks.T @ adj @ blocks
    vals = np.linalg.eigvalsh((restricted + restricted.T) / 2.0)
    return float(np.max(np.abs(vals)))


# (lift, balanced_extreme) by id(lift): a measured run checks every repeat of
# an input against the one value; holding the lift keeps its id from being
# reused by another
_EXTREMES: dict[int, tuple[object, float]] = {}


def cross_check(lambda_star: float, lift) -> list[str]:
    held = _EXTREMES.get(id(lift))
    if held is None:
        held = _EXTREMES[id(lift)] = (lift, balanced_extreme(lift))
    want = held[1]
    if close(want, lambda_star, CROSS_CHECK_RTOL, 0.0) and math.isfinite(lambda_star):
        return []
    return [f"lambda_star {lambda_star!r} != eigvalsh {want!r}"]


def verify(item, outcome: dict, reference: dict) -> list[str]:
    """Every way this item's output differs from the recorded reference."""
    expected = reference["outputs"].get(item.key)
    if expected is None:
        return [f"no reference output for {item.key}"]
    if item.kind != "sweep":
        return compare_digests(expected, outcome)
    tol = reference["tolerance"]
    problems = list(outcome["failures"])
    problems += compare_row(reference["columns"], expected["row"], outcome["row"],
                            tol["rtol"], tol["atol"])
    if item.lift is not None and outcome["lambda_star"] is not None:
        problems += cross_check(outcome["lambda_star"], item.lift)
    return problems
