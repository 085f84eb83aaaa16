"""Which ``liftlab`` functions the traced run wraps, and the per-layer
metrics derived from their spans.

A wrapper replaces a module attribute, so it sees the calls that go
through that attribute: the names ``experiment``, ``spectra`` and
``dyadic`` import, the adjacency kernel inside ``graphs``, and the two
reductions the census workload calls through ``patterns``.
"""

from __future__ import annotations

from spans import Span, layer_self_ms

# per-layer metric -> unit; BENCHMARK.json lists the same names and units
UNITS = {
    "sampling.self_ms": "ms",
    "spectra.self_ms": "ms",
    "spectra.iterations": "count",
    "spectra.unconverged": "count",
    "eigensolve.dense_ms": "ms",
    "eigensolve.lanczos_ms": "ms",
    "eigensolve.ms_per_iteration": "ms",
    "graphs.self_ms": "ms",
    "graphs.matvecs": "count",
    "graphs.matvec_bytes": "bytes",
    "dyadic.self_ms": "ms",
    "dyadic.trials": "count",
    "dyadic.ms_per_trial": "ms",
    "dyadic.band_select_ms": "ms",
    "dyadic.met_ratio": "ratio",
    "patterns.extract_ms": "ms",
    "patterns.reduce_ms": "ms",
    "patterns.classes": "count",
    "patterns.links": "count",
    "patterns.removals": "count",
    "patterns.kept": "count",
    "witnesses.self_ms": "ms",
    "experiment.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def matvec_bytes(n: int, h: int, edges: int) -> int:
    """Bytes one adjacency application moves, computed from array sizes
    (cache misses ignored): per base edge a gather and a scatter-add of n
    float64 values through n int64 indices, 64n in all, plus zeroing the nh
    float64 output."""
    return 64 * n * edges + 8 * n * h


def _spectral(args, out):
    return {"iterations": out.iterations, "unconverged": int(not out.converged)}


def _lanczos(args, out):
    return {"iterations": out.iterations}


def _trials(args, out):
    return {"trials": out.trials}


def _band(args, out):
    # the same rule that fills the CSV's dyprop_met column
    met = out.certificate.met if out.certificate is not None else out.met
    return {"met": int(met)}


def _reduction(args, out):
    pattern = args[0]
    return {"classes": len(pattern.profile.counts), "links": len(pattern.links),
            "removals": len(out.removals), "kept": len(out.kept)}


def _adjacency(args, out):
    lift = args[0]
    return {"bytes": matvec_bytes(lift.n, lift.h, len(lift.perms))}


# (liftlab module, attribute, layer, counts read from the result)
PATCHES = (
    ("experiment", "sample_lift", "sampling", None),
    ("experiment", "lambda_star", "spectra", _spectral),
    ("experiment", "band_certificate", "dyadic", _band),
    ("experiment", "extract_pattern", "patterns", None),
    ("experiment", "reduce_pattern", "patterns", _reduction),
    ("experiment", "reduce_general", "patterns", _reduction),
    ("experiment", "pattern_witness_bound", "witnesses", None),
    ("experiment", "symmetric_eigenvalues", "eigensolve", None),
    ("spectra", "new_spectrum", "spectra", None),
    ("spectra", "symmetric_eigenvalues", "eigensolve", None),
    ("spectra", "lanczos_extreme", "eigensolve", _lanczos),
    ("dyadic", "lambda_star", "spectra", _spectral),
    ("dyadic", "dyadic_certificate", "dyadic", _trials),
    ("dyadic", "band_select", "dyadic", None),
    ("graphs", "_adjacency_raw", "graphs", _adjacency),
    ("patterns", "reduce_pattern", "patterns", _reduction),
    ("patterns", "reduce_general", "patterns", _reduction),
)


def patches(package):
    """PATCHES with module names resolved against the imported package."""
    return [(getattr(package, module), attr, layer, count)
            for module, attr, layer, count in PATCHES]


def _named(spans, *names):
    return [s for s in spans if s.name in names]


def _sum_counts(spans, key):
    return sum(s.counts.get(key, 0) for s in spans)


def _ms(spans):
    return sum(s.duration for s in spans) * 1000.0


def layer_counts(spans: list[Span]) -> dict[str, int]:
    """The exact counts among the per-layer metrics, plus certificates met."""
    spectral = _named(spans, "spectra.lambda_star")
    reductions = _named(spans, "patterns.reduce_pattern", "patterns.reduce_general")
    adjacency = _named(spans, "graphs._adjacency_raw")
    return {
        "spectra.iterations": _sum_counts(spectral, "iterations"),
        "spectra.unconverged": _sum_counts(spectral, "unconverged"),
        "graphs.matvecs": len(adjacency),
        "graphs.matvec_bytes": _sum_counts(adjacency, "bytes"),
        "dyadic.trials": _sum_counts(_named(spans, "dyadic.dyadic_certificate"), "trials"),
        "dyadic.met": _sum_counts(_named(spans, "dyadic.band_certificate"), "met"),
        "patterns.classes": _sum_counts(reductions, "classes"),
        "patterns.links": _sum_counts(reductions, "links"),
        "patterns.removals": _sum_counts(reductions, "removals"),
        "patterns.kept": _sum_counts(reductions, "kept"),
    }


def layer_metrics(spans: list[Span], selfs: list[float], overhead_pct: float) -> dict[str, float]:
    """Every metric in UNITS, totalled over the traced items."""
    own = layer_self_ms(spans, selfs)
    counts = layer_counts(spans)
    lanczos = _named(spans, "eigensolve.lanczos_extreme")
    lanczos_ms = _ms(lanczos)
    lanczos_iterations = _sum_counts(lanczos, "iterations")
    certificate_ms = _ms(_named(spans, "dyadic.dyadic_certificate"))
    bands = len(_named(spans, "dyadic.band_certificate"))
    dense = [s for s in _named(spans, "eigensolve.symmetric_eigenvalues")
             if s.parent is not None and spans[s.parent].name == "spectra.new_spectrum"]
    return {
        "sampling.self_ms": own.get("sampling", 0.0),
        "spectra.self_ms": own.get("spectra", 0.0),
        "spectra.iterations": counts["spectra.iterations"],
        "spectra.unconverged": counts["spectra.unconverged"],
        "eigensolve.dense_ms": _ms(dense),
        "eigensolve.lanczos_ms": lanczos_ms,
        "eigensolve.ms_per_iteration": lanczos_ms / lanczos_iterations if lanczos_iterations else 0.0,
        "graphs.self_ms": own.get("graphs", 0.0),
        "graphs.matvecs": counts["graphs.matvecs"],
        "graphs.matvec_bytes": counts["graphs.matvec_bytes"],
        "dyadic.self_ms": own.get("dyadic", 0.0),
        "dyadic.trials": counts["dyadic.trials"],
        "dyadic.ms_per_trial": certificate_ms / counts["dyadic.trials"] if counts["dyadic.trials"] else 0.0,
        "dyadic.band_select_ms": _ms(_named(spans, "dyadic.band_select")),
        "dyadic.met_ratio": counts["dyadic.met"] / bands if bands else 0.0,
        "patterns.extract_ms": _ms(_named(spans, "patterns.extract_pattern")),
        "patterns.reduce_ms": _ms(_named(spans, "patterns.reduce_pattern", "patterns.reduce_general")),
        "patterns.classes": counts["patterns.classes"],
        "patterns.links": counts["patterns.links"],
        "patterns.removals": counts["patterns.removals"],
        "patterns.kept": counts["patterns.kept"],
        "witnesses.self_ms": own.get("witnesses", 0.0),
        "experiment.self_ms": own.get("experiment", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
