"""Reproducible sweeps over random lifts, plus the end-to-end pipeline that
turns a large centered eigenvalue into a small dense witness subgraph.

Each (n, seed) cell samples one lift, runs the configured stages, and emits
one CSV row.  Cells run one after another, and rows are written sorted by
(n, seed).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from pathlib import Path

from .dyadic import band_certificate
from .eigensolve import symmetric_eigenvalues
from .errors import ConfigError, LiftlabError
from .graphs import (BaseGraph, Lift, _check_count, _check_fibre_size, base_from_name,
                     base_from_text, induced_adjacency)
from .patterns import (ReductionReport, _check_level, extract_pattern, reduce_general,
                       reduce_pattern)
from .sampling import SeededRng, sample_lift
from .spectra import SpectralReport, _check_tol, lambda_star
from .witnesses import PatternWitnessBounds, pattern_witness_bound

# Hard spectral guarantee: the balanced centered extreme of a random lift
# stays below HEADLINE_SPECTRAL_FACTOR * sqrt(d) with high probability, and
# above EXPLAIN_SPECTRAL_FACTOR * sqrt(d) it is explained by a witness
# subgraph G' with lambda* <= EXPLAIN_SPECTRAL_FACTOR * lambda(G').
HEADLINE_SPECTRAL_FACTOR = 430656.0
EXPLAIN_SPECTRAL_FACTOR = 1189248.0
# Reduction strength used by the explanation chain; the strength-budget
# arithmetic behind the witness bound needs at least 41 here.
EXPLAIN_LEVEL = 41.0

STAGES = ("spectrum", "certificate", "reduction", "witnesses")

CSV_COLUMNS = ("seed", "h", "d", "n", "lambda_top", "lambda_star",
               "ramanujan_ratio", "paper_ratio", "dyprop_met", "z_value",
               "reduce_branch", "reduce_kept", "retention_slack", "wall_ms")
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell.  Stages that did not run leave their fields None.

    ramanujan_ratio compares lambda* to the two-sided Ramanujan radius
    2 sqrt(d-1); paper_ratio compares it to the headline guarantee
    HEADLINE_SPECTRAL_FACTOR * sqrt(d) and must come out below one.
    """

    seed: int
    h: int
    d: int
    n: int
    lambda_top: float | None = None
    lambda_star: float | None = None
    ramanujan_ratio: float | None = None
    paper_ratio: float | None = None
    dyprop_met: bool | None = None
    z_value: float | None = None
    reduce_branch: str | None = None
    reduce_kept: int | None = None
    retention_slack: float | None = None
    wall_ms: float | None = None

    def csv_values(self) -> list[str]:
        out = []
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            if value is None:
                out.append("")
            elif isinstance(value, bool):
                out.append("1" if value else "0")
            elif isinstance(value, float):
                out.append(format(value, ".12g"))
            else:
                out.append(str(value))
        return out


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [",".join(row.csv_values()) for row in rows]) + "\n"


def _check_stages(stages) -> tuple[str, ...]:
    """The stages as a tuple; ConfigError unless a non-empty tuple or list of names in STAGES."""
    names = tuple(stages) if isinstance(stages, (tuple, list)) else ()
    if not names or any(name not in STAGES for name in names):
        raise ConfigError(f"stages must be a non-empty list of names from {STAGES}, not {stages!r}")
    return names


@dataclass(frozen=True)
class ExperimentConfig:
    base: BaseGraph
    n_values: tuple[int, ...]
    seeds: tuple[int, ...]
    tolerance: float = 1e-8
    stages: tuple[str, ...] = STAGES
    out_csv: str | None = None
    trials: int = 40

    def __post_init__(self):
        if not isinstance(self.base, BaseGraph):
            raise ConfigError(f"base must be a BaseGraph, not {self.base!r}")
        if not (self.out_csv is None or isinstance(self.out_csv, (str, os.PathLike))):
            raise ConfigError(f"out_csv must be a path or None, not {self.out_csv!r}")
        if not (self.n_values and self.seeds):
            raise ConfigError("need at least one n and one seed")
        for n in self.n_values:
            _check_fibre_size(n)
        for seed in self.seeds:
            SeededRng(seed)
        object.__setattr__(self, "stages", _check_stages(self.stages))
        _check_tol(self.tolerance)
        _check_count(self.trials, "trials")


# optional config key -> the ExperimentConfig field that checks its value
_CONFIG_FIELDS = {"tolerance": "tolerance", "out": "out_csv", "stages": "stages", "trials": "trials"}
_CONFIG_KEYS = {"base", "base_file", "n", "seeds", *_CONFIG_FIELDS}


def config_from_json(text: str) -> ExperimentConfig:
    """Parse a JSON config: {"base": "k4", "n": [100], "seeds": [1, 2], ...}.

    Either "base" (a family name such as k4, c9p2, petersen) or "base_file"
    (path to an edge-list text file) selects the base graph. A malformed
    document raises ConfigError.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if ("base" in doc) == ("base_file" in doc):
            raise ConfigError("give exactly one of 'base' or 'base_file'")
        if "base" in doc:
            base = base_from_name(doc["base"])
        else:
            base = base_from_text(Path(doc["base_file"]).read_text())
        n_raw = doc.get("n", [])
        n_values = tuple(n_raw if isinstance(n_raw, list) else [n_raw])
        seeds = tuple(doc.get("seeds", []))
        kwargs = {name: doc[key] for key, name in _CONFIG_FIELDS.items() if key in doc}
        if None in kwargs.values():
            raise ConfigError("config values cannot be null")
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return ExperimentConfig(base, n_values, seeds, **kwargs)


def _witness_chain(lift: Lift, rep: SpectralReport, trials: int, rng: SeededRng, reduce):
    """Certify -> census -> reduce -> bound, one step per ``next``: the band certificate,
    then ``(pattern, reduce(pattern))`` for the census, then the witness bounds of the
    kept classes, or of the whole census when none is kept. Raises LiftlabError if
    lambda* falls below the spectrum bound."""
    cert = band_certificate(lift, trials=trials, rng=rng, spectral=rep)
    yield cert
    pattern, found = extract_pattern(cert.vector, lift)
    reduction = reduce(pattern)
    yield pattern, reduction
    # at desk scale the reduction usually empties out; the whole census then
    # still shows where the extreme lives
    surfaced = pattern.restricted(reduction.kept) if reduction.kept else pattern
    bounds = pattern_witness_bound(
        lift, surfaced, {v: found[v] for v in found if v in surfaced.profile.counts})
    if rep.lambda_star < bounds.spectrum_bound - 1e-6:
        raise LiftlabError("witness bound exceeds the computed extreme: "
                           f"{bounds.spectrum_bound:.6g} vs {rep.lambda_star:.6g}")
    yield bounds


def run_cell(base: BaseGraph, n: int, seed: int,
             stages=STAGES, tolerance: float = 1e-8,
             trials: int = 40) -> ResultRow:
    """Sample one lift and run the requested stages on it.

    Later stages need earlier ones, so prerequisites are computed as needed;
    only the requested stages fill CSV fields.
    """
    stages = _check_stages(stages)
    t0 = time.perf_counter()
    lift = sample_lift(base, n, SeededRng(seed))
    row = ResultRow(seed=seed, h=base.h, d=base.d, n=n)

    rep = lambda_star(lift, tol=tolerance).require_converged()
    if "spectrum" in stages:
        ramanujan = (rep.lambda_star / (2.0 * math.sqrt(base.d - 1))
                     if base.d >= 2 else float("nan"))
        row = replace(row,
                      lambda_top=rep.lambda_top,
                      lambda_star=rep.lambda_star,
                      ramanujan_ratio=ramanujan,
                      paper_ratio=rep.lambda_star / (HEADLINE_SPECTRAL_FACTOR
                                                     * math.sqrt(base.d)))

    # stage i of STAGES needs the chain's first i steps
    steps = list(islice(_witness_chain(lift, rep, trials, SeededRng(seed, 202), reduce_pattern),
                        max(map(STAGES.index, stages))))
    if "certificate" in stages:
        row = replace(row, dyprop_met=steps[0].dyadic_met, z_value=steps[0].achieved)
    if "reduction" in stages:
        _, reduction = steps[1]
        row = replace(row, reduce_branch=reduction.branch, reduce_kept=len(reduction.kept),
                      retention_slack=reduction.potency_after - reduction.retention_floor)

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return replace(row, wall_ms=wall_ms)


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ResultRow, ...]
    failures: tuple[str, ...]
    csv_path: str | None


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run each distinct (n, seed) cell of the grid once.

    Failed cells, including those that run out of memory, become bare rows
    (identity columns only) plus an entry in failures; whatever finished is
    flushed to the CSV even on interrupt.
    """
    done: dict[tuple[int, int], ResultRow] = {}
    failures: list[str] = []
    try:
        for n in sorted(set(config.n_values)):
            for seed in dict.fromkeys(config.seeds):
                try:
                    row = run_cell(config.base, n, seed, stages=config.stages,
                                   tolerance=config.tolerance, trials=config.trials)
                except (LiftlabError, MemoryError) as exc:
                    row = ResultRow(seed=seed, h=config.base.h, d=config.base.d, n=n)
                    failures.append(f"n={n} seed={seed}: {exc}")
                done[(n, seed)] = row
    finally:
        rows = tuple(done[c] for c in sorted(done))
        if config.out_csv is not None:
            Path(config.out_csv).write_text(rows_to_csv(rows))
    return ExperimentResult(rows, tuple(failures), config.out_csv)


# ---------------------------------------------------------------------------
# end-to-end explanation pipeline


@dataclass(frozen=True)
class ExplainReport:
    """Outcome of explaining a lift's centered extreme.

    branch "star": the extreme sits below the explanation threshold (or the
    witness subgraph was too large), so the single-star subgraph with top
    eigenvalue sqrt(d) already certifies the claimed inequality.
    branch "witness": the surviving witness classes induce a subgraph G'
    with lambda* <= EXPLAIN_SPECTRAL_FACTOR * lambda(G').
    """

    branch: str
    lambda_star: float
    threshold: float
    subgraph_vertices: tuple[tuple[int, int], ...]
    alpha: int
    subgraph_value: float
    bound_ok: bool
    spectral: SpectralReport
    reduction: ReductionReport | None = None
    witness_bounds: PatternWitnessBounds | None = None
    inspected_value: float | None = None


def explain_pipeline(lift: Lift, level: float = EXPLAIN_LEVEL,
                     trials: int = 40, rng: SeededRng | None = None,
                     force_witness: bool = False) -> ExplainReport:
    """Certify -> census -> reduce -> witness subgraph, then check the
    explanation inequality.

    Below the threshold the star fallback applies and the chain is skipped
    unless force_witness asks for the subgraph anyway (useful for inspecting
    where the extreme lives even when the bound is trivially met).
    """
    _check_level(level)
    _check_count(trials, "trials")
    rng = rng if rng is not None else SeededRng(0)
    rep = lambda_star(lift).require_converged()
    d = lift.d
    threshold = EXPLAIN_SPECTRAL_FACTOR * math.sqrt(d)
    star_value = math.sqrt(d)
    above = rep.lambda_star >= threshold

    reduction = bounds = inspected = None
    members: tuple[tuple[int, int], ...] = ()
    if above or force_witness:
        _, (_, reduction), bounds = _witness_chain(lift, rep, trials, rng,
                                                   partial(reduce_general, level=level))
        members = bounds.members
        eigs = symmetric_eigenvalues(induced_adjacency(lift, list(members)))
        inspected = max(float(eigs[0]), 0.0) if members else 0.0
    alpha = len(members)

    if above and alpha <= lift.h * d:
        ok = rep.lambda_star <= (EXPLAIN_SPECTRAL_FACTOR * inspected
                                 * (1.0 + 1e-12) + 1e-9)
        return ExplainReport("witness", rep.lambda_star, threshold, members,
                             alpha, inspected, ok, rep, reduction, bounds,
                             inspected)
    # a degree-d star is a subgraph of every lift, so below the threshold the
    # inequality holds with room to spare
    ok = rep.lambda_star <= EXPLAIN_SPECTRAL_FACTOR * star_value + 1e-9
    return ExplainReport("star", rep.lambda_star, threshold, members, alpha,
                         star_value, ok, rep, reduction, bounds, inspected)


def explain_to_text(report: ExplainReport) -> str:
    lines = ["explanation",
             f"branch {report.branch}",
             f"extreme {report.lambda_star!r}",
             f"threshold {report.threshold!r}",
             f"alpha {report.alpha}",
             f"subgraph-value {report.subgraph_value!r}",
             f"bound-ok {int(report.bound_ok)}"]
    if report.reduction is not None:
        lines.append(f"reduction-branch {report.reduction.branch}")
        lines.append(f"reduction-kept {len(report.reduction.kept)}")
    if report.subgraph_vertices:
        verts = " ".join(f"{i}:{j}" for i, j in report.subgraph_vertices)
        lines.append(f"subgraph {verts}")
    return "\n".join(lines) + "\n"
