"""Sweep harness checks: config validation, cell rows, CSV stability,
and the explanation pipeline's two branches."""

import csv
import dataclasses
import functools
import io
import importlib
import json
import math
from pathlib import Path

import pytest

import liftlab.experiment as exp
from liftlab.errors import ConfigError, LiftlabError, NotConvergedError
from liftlab.experiment import (CSV_COLUMNS, CSV_HEADER, EXPLAIN_SPECTRAL_FACTOR,
                                HEADLINE_SPECTRAL_FACTOR, ExperimentConfig,
                                ResultRow, config_from_json, explain_pipeline,
                                explain_to_text, rows_to_csv, run_cell,
                                run_experiment)
import liftlab.dyadic
import liftlab.spectra
from liftlab.dyadic import band_certificate
from liftlab.eigensolve import symmetric_eigenvalues
from liftlab.graphs import base_from_name, identity_lift
from liftlab.sampling import SeededRng, plant_clique, sample_lift

from _support import base_to_text, oracle_induced

K4 = base_from_name("k4")


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_headline_constants_are_consistent():
    # the explanation threshold factors through the same 192 / -3 / budget
    # arithmetic as the headline factor
    assert HEADLINE_SPECTRAL_FACTOR == 192 * (2240 + 3)
    assert HEADLINE_SPECTRAL_FACTOR / 192 - 3 == 2240
    assert (HEADLINE_SPECTRAL_FACTOR / 192 - 3) / 112 == 20
    assert EXPLAIN_SPECTRAL_FACTOR / 192 - 3 == 6191
    assert (EXPLAIN_SPECTRAL_FACTOR / 192 - 3) / 151 == pytest.approx(41.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(K4, (), (1,))
    with pytest.raises(ConfigError):
        ExperimentConfig(K4, (0,), (1,))
    with pytest.raises(ConfigError):
        ExperimentConfig(K4, (10,), ())
    with pytest.raises(ConfigError):
        ExperimentConfig(K4, (10,), (1,), stages=("spectrum", "nope"))
    with pytest.raises(ConfigError):
        ExperimentConfig(K4, (10,), (1,), stages=())
    with pytest.raises(ConfigError):
        ExperimentConfig(K4, (10,), (1,), tolerance=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(K4, (10,), (1,), trials=0)


@pytest.mark.parametrize("fields", [
    pytest.param({"n_values": (2.5,)}, id="n-half"),
    pytest.param({"n_values": (True,)}, id="n-bool"),
    pytest.param({"n_values": (2 ** 70,)}, id="n-beyond-int64"),
    pytest.param({"seeds": (1.5,)}, id="seed-half"),
    pytest.param({"seeds": (True,)}, id="seed-bool"),
    pytest.param({"trials": 2.5}, id="trials-half"),
    pytest.param({"trials": True}, id="trials-bool"),
    pytest.param({"tolerance": "tight"}, id="tolerance-string"),
    pytest.param({"base": "k4"}, id="base-name"),
    pytest.param({"out_csv": 5}, id="out-number"),
])
def test_config_reads_each_scalar_by_the_library_rule(monkeypatch, fields):
    # n = 2.5 once failed every cell, a half seed or trial count escaped
    # run_experiment as a bare TypeError, a base name died in the first cell and a
    # numeric CSV path after the last; now the config refuses them and no cell runs
    monkeypatch.setattr(exp, "run_cell", lambda *args, **kwargs: pytest.fail("a cell ran"))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(**{"base": K4, "n_values": (5,), "seeds": (1,), **fields}))


def test_config_from_json_named_base():
    cfg = config_from_json('{"base": "k5", "n": [10, 20], "seeds": [3],'
                           ' "tolerance": 1e-6, "stages": ["spectrum"],'
                           ' "out": "x.csv", "trials": 5}')
    assert cfg.base.h == 5 and cfg.base.d == 4
    assert cfg.n_values == (10, 20)
    assert cfg.seeds == (3,)
    assert cfg.tolerance == 1e-6
    assert cfg.stages == ("spectrum",)
    assert cfg.out_csv == "x.csv"
    assert cfg.trials == 5


def test_config_from_json_scalar_n_and_base_file(tmp_path):
    path = tmp_path / "base.txt"
    path.write_text(base_to_text(K4))
    cfg = config_from_json('{"base_file": "%s", "n": 12, "seeds": [1, 2], "tolerance": 1}' % path)
    assert cfg.base == K4
    assert cfg.n_values == (12,)
    assert cfg.tolerance == 1.0  # a JSON integer is a number


def test_config_from_json_rejects_bad_documents():
    with pytest.raises(ConfigError):
        config_from_json('[1, 2]')
    with pytest.raises(ConfigError):
        config_from_json('{"n": [10], "seeds": [1]}')  # no base at all
    with pytest.raises(ConfigError):
        config_from_json('{"base": "k4", "base_file": "x", "n": [10], "seeds": [1]}')
    with pytest.raises(ConfigError):
        config_from_json('{"base": "k4", "n": [10], "seeds": [1], "extra": true}')


def test_config_from_json_raises_config_errors_for_bad_values(tmp_path):
    bad_base = tmp_path / "base.txt"
    bad_base.write_text("3 x\n")
    for doc in ('{"base": "kx", "n": [10], "seeds": [1]}',
                '{"base": "k4", "n": ["a"], "seeds": [1]}',
                '{"base": "k4", "n": [[10]], "seeds": [1]}',
                '{"base": "k4", "n": [10], "seeds": [1], "trials": "many"}',
                '{"base": "k4", "n": [10], "seeds": [1], "stages": 3}',
                '{"base": "k4", "n": [10], "seeds": [1], "stages": "spectrum"}',
                '{"base_file": %s, "n": [10], "seeds": [1]}' % json.dumps(str(bad_base)),
                '{"base_file": 7, "n": [10], "seeds": [1]}',
                '{"base": "k4", "n": [10], "seeds": [1],',
                # read as given or refused, never coerced
                '{"base": "k4", "n": [10.7], "seeds": [1]}',
                '{"base": "k4", "n": 10.0, "seeds": [1]}',
                '{"base": "k4", "n": "12", "seeds": [1]}',
                '{"base": "k4", "n": [true], "seeds": [1]}',
                '{"base": "k4", "n": [10], "seeds": [2.9]}',
                '{"base": "k4", "n": [10], "seeds": [false]}',
                '{"base": "k4", "n": [10], "seeds": ["1"]}',
                '{"base": "k4", "n": [10], "seeds": [1], "trials": 40.5}',
                '{"base": "k4", "n": [10], "seeds": [1], "trials": true}',
                '{"base": "k4", "n": [10], "seeds": [1], "tolerance": "1e-8"}',
                '{"base": "k4", "n": [10], "seeds": [1], "tolerance": true}',
                '{"base": "k4", "n": [10], "seeds": [1], "out": 5}',
                '{"base": "k4", "n": [10], "seeds": [1], "out": null}',
                '{"base": "k4", "n": [10], "seeds": [1], "out": ["x.csv"]}',
                '{"base": "k4", "n": [10], "seeds": [1], "tolerance": null}'):
        with pytest.raises(ConfigError):
            config_from_json(doc)


def test_run_cell_fills_every_column():
    row = run_cell(K4, 30, 1, trials=6)
    assert (row.h, row.d, row.n, row.seed) == (4, 3, 30, 1)
    assert row.lambda_top == pytest.approx(3.0, abs=1e-6)
    assert row.ramanujan_ratio == pytest.approx(
        row.lambda_star / (2.0 * math.sqrt(2.0)), rel=1e-12)
    assert row.paper_ratio == pytest.approx(
        row.lambda_star / (HEADLINE_SPECTRAL_FACTOR * math.sqrt(3.0)), rel=1e-12)
    assert 0.0 < row.paper_ratio < 1.0
    assert isinstance(row.dyprop_met, bool)
    assert row.z_value >= 0.0
    assert row.reduce_branch in ("large", "small")
    assert row.reduce_kept >= 0
    assert row.retention_slack >= -1e-9
    assert row.wall_ms > 0.0


def test_run_cell_respects_stage_selection():
    only_spec = run_cell(K4, 20, 2, stages=("spectrum",), trials=4)
    assert only_spec.lambda_star is not None
    assert only_spec.dyprop_met is None
    assert only_spec.reduce_branch is None

    only_cert = run_cell(K4, 20, 2, stages=("certificate",), trials=4)
    assert only_cert.lambda_star is None
    assert only_cert.z_value is not None
    assert only_cert.reduce_branch is None

    witness_only = run_cell(K4, 20, 2, stages=("witnesses",), trials=4)
    assert witness_only.reduce_branch is None
    assert witness_only.wall_ms > 0.0


@pytest.mark.parametrize("stages", [("certficate",), [], "spectrum", ("spectrum", None), None],
                         ids=["misspelled", "empty", "str", "none-name", "none"])
def test_run_cell_checks_its_stages_before_it_samples(stages, monkeypatch):
    def refuse(*args):
        raise AssertionError("the cell sampled a lift before it checked its stages")

    monkeypatch.setattr(exp, "sample_lift", refuse)
    with pytest.raises(ConfigError, match="stages must be"):
        run_cell(K4, 5, 1, stages=stages)
    with pytest.raises(ConfigError, match="stages must be"):
        ExperimentConfig(K4, (5,), (1,), stages=stages)


def test_run_cell_degree_one_has_no_ramanujan_radius():
    k2 = base_from_name("k2")
    row = run_cell(k2, 8, 1, stages=("spectrum",), trials=2)
    assert math.isnan(row.ramanujan_ratio)
    assert row.lambda_top == pytest.approx(1.0, abs=1e-6)


def test_csv_header_is_the_published_contract():
    assert CSV_HEADER == ("seed,h,d,n,lambda_top,lambda_star,ramanujan_ratio,"
                          "paper_ratio,dyprop_met,z_value,reduce_branch,"
                          "reduce_kept,retention_slack,wall_ms")
    assert len(CSV_COLUMNS) == 14


def test_rows_to_csv_round_trip():
    row = run_cell(K4, 15, 3, trials=4)
    bare = ResultRow(seed=9, h=4, d=3, n=15)
    parsed = parse_csv(rows_to_csv([row, bare]))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 3
    full, empty = parsed[1], parsed[2]
    assert full[0] == "3" and full[3] == "15"
    assert float(full[4]) == pytest.approx(3.0, abs=1e-6)
    assert full[8] in ("0", "1")
    # bare rows keep identity columns and leave the rest blank
    assert empty[:4] == ["9", "4", "3", "15"]
    assert all(cell == "" for cell in empty[4:])


def test_run_experiment_orders_rows_and_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(K4, (25, 20), (2, 1), trials=4, out_csv=str(out))
    result = run_experiment(cfg)
    assert result.csv_path == str(out)
    assert result.failures == ()
    keys = [(r.n, r.seed) for r in result.rows]
    assert keys == [(20, 1), (20, 2), (25, 1), (25, 2)]
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5


def test_run_experiment_is_reproducible_except_wall_time():
    cfg = ExperimentConfig(K4, (18,), (1, 2), trials=4)
    first = run_experiment(cfg).rows
    second = run_experiment(cfg).rows
    for a, b in zip(first, second):
        va, vb = a.csv_values(), b.csv_values()
        assert va[:-1] == vb[:-1]


def test_failed_cells_become_bare_rows(monkeypatch, tmp_path):
    real = exp.run_cell

    def flaky(base, n, seed, **kwargs):
        if seed == 2:
            raise LiftlabError("synthetic failure")
        return real(base, n, seed, **kwargs)

    monkeypatch.setattr(exp, "run_cell", flaky)
    out = tmp_path / "partial.csv"
    cfg = ExperimentConfig(K4, (12,), (1, 2, 3), trials=4, out_csv=str(out))
    result = run_experiment(cfg)
    assert len(result.rows) == 3
    assert len(result.failures) == 1
    assert "seed=2" in result.failures[0]
    bad = [r for r in result.rows if r.seed == 2][0]
    assert bad.lambda_star is None
    assert out.read_text().count("\n") == 4


def test_run_experiment_runs_each_distinct_cell_once(monkeypatch):
    calls = []

    def spy(base, n, seed, **kwargs):
        calls.append((n, seed))
        if seed == 1:
            raise LiftlabError("synthetic failure")
        return ResultRow(seed=seed, h=base.h, d=base.d, n=n)

    monkeypatch.setattr(exp, "run_cell", spy)
    result = run_experiment(ExperimentConfig(K4, (12, 12), (2, 1, 2, 1), trials=4))
    assert calls == [(12, 2), (12, 1)]
    assert [(r.n, r.seed) for r in result.rows] == [(12, 1), (12, 2)]
    assert result.failures == ("n=12 seed=1: synthetic failure",)


def test_unconverged_spectrum_fails_the_cell(monkeypatch):
    real = exp.lambda_star

    def stalled(lift, **kwargs):
        rep = real(lift, **kwargs)
        return dataclasses.replace(rep, converged=False) if lift.n == 13 else rep

    monkeypatch.setattr(exp, "lambda_star", stalled)
    cfg = ExperimentConfig(K4, (12, 13), (1,), trials=4)
    result = run_experiment(cfg)
    assert [r.n for r in result.rows] == [12, 13]
    good, bare = result.rows
    assert good.lambda_star is not None
    assert bare == ResultRow(seed=1, h=4, d=3, n=13)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("n=13 seed=1: ")
    assert "did not converge" in result.failures[0]


def test_a_fibre_size_beyond_memory_fails_its_cell():
    # 10**18 int64 entries exceed any address space, so nothing is allocated
    cfg = ExperimentConfig(K4, (12, 10 ** 18), (1,), stages=("spectrum",))
    result = run_experiment(cfg)
    good, bare = result.rows
    assert good.lambda_star is not None
    assert bare == ResultRow(seed=1, h=4, d=3, n=10 ** 18)
    assert len(result.failures) == 1
    assert result.failures[0].startswith(f"n={10 ** 18} seed=1: ")


def test_unconverged_spectrum_stops_explain_and_certificate(monkeypatch):
    lift = sample_lift(K4, 30, SeededRng(2))
    real = exp.lambda_star
    converged = real(lift)

    def stalled(lift, **kwargs):
        return dataclasses.replace(real(lift, **kwargs), converged=False)

    monkeypatch.setattr(exp, "lambda_star", stalled)
    monkeypatch.setattr(liftlab.dyadic, "lambda_star", stalled)
    with pytest.raises(NotConvergedError):
        explain_pipeline(lift, trials=4, force_witness=True)
    with pytest.raises(NotConvergedError):
        band_certificate(lift, trials=4)
    # a report the caller passes in is the caller's to check
    assert band_certificate(lift, trials=4, spectral=converged).spectral is converged


@pytest.mark.parametrize("caller", ["cell", "explain"])
def test_a_witness_bound_above_lambda_star_fails_the_chain(monkeypatch, caller):
    # the bound certifies lambda*, so one above it is a fault, in a sweep cell and in explain
    real = exp.pattern_witness_bound

    def above(lift, pattern, witnesses):
        return dataclasses.replace(real(lift, pattern, witnesses),
                                   spectrum_bound=exp.lambda_star(lift).lambda_star + 1.0)

    monkeypatch.setattr(exp, "pattern_witness_bound", above)
    if caller == "cell":
        result = run_experiment(ExperimentConfig(K4, (20,), (1,), trials=4))
        assert result.rows == (ResultRow(seed=1, h=4, d=3, n=20),)
        assert len(result.failures) == 1 and "witness bound exceeds" in result.failures[0]
    else:
        with pytest.raises(LiftlabError, match="witness bound exceeds"):
            explain_pipeline(sample_lift(K4, 20, SeededRng(1)), trials=4, force_witness=True)


def test_an_emptied_reduction_bounds_the_whole_census(monkeypatch):
    # a pool cell whose reduction keeps no class: the witnesses stage bounds the census
    # the certificate gave, as explain does, not an empty pattern
    seen = {}
    extract, bound = exp.extract_pattern, exp.pattern_witness_bound
    monkeypatch.setattr(exp, "extract_pattern",
                        lambda *args: seen.setdefault("census", extract(*args)))
    monkeypatch.setattr(exp, "pattern_witness_bound",
                        lambda *args: seen.setdefault("bounded", args) and bound(*args))
    row = run_cell(base_from_name("k4"), 150, 1)
    assert row.reduce_kept == 0
    census, found = seen["census"]
    assert census.profile.total > 0
    assert seen["bounded"][1:] == (census, found)


@pytest.mark.parametrize("seed, z_value, branch", [(1, "8.36266666667", "large"),
                                                   (6, "11.456", "small")])
def test_dense_cells_on_a_bipartite_base_keep_their_recorded_rows(seed, z_value, branch):
    # c6 has +-theta ties in the balanced spectrum, and the bits of the dense
    # QL eigenvalues pick the witness's eigenspace; perfbench/reference.json
    # records these rows, of which these are the tie-sensitive fields (LAPACK
    # eigenvalues flip seed 6, not seed 1)
    row = run_cell(base_from_name("c6"), 100, seed)
    assert format(row.z_value, ".12g") == z_value
    assert row.reduce_branch == branch
    assert format(row.lambda_star, ".12g") == "2"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _keeps_its_recorded_row(monkeypatch, name, n, seed, stages=None):
    # the benchmark's reference rows and row comparison are read, never written
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    stages = stages or workloads.ALL_STAGES
    reference = checks.load_reference()
    expected = reference["outputs"][workloads.sweep_key(name, n, stages, seed)]
    row = run_cell(base_from_name(name), n, seed, stages=stages)
    values = row.csv_values()
    actual = ",".join(v for v, c in zip(values, CSV_COLUMNS) if c != "wall_ms")
    tol = reference["tolerance"]
    assert checks.compare_row(reference["columns"], expected["row"], actual,
                              tol["rtol"], tol["atol"]) == []


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("name, n", [("k4", 1000), ("petersen", 500)])
def test_lanczos_cells_keep_their_recorded_rows(monkeypatch, name, n, seed):
    # the iterative-spectrum cells of the benchmark pool run every stage on
    # the Lanczos matvec and the certificate kernels
    _keeps_its_recorded_row(monkeypatch, name, n, seed)


def test_the_spectrum_only_cell_keeps_its_recorded_row(monkeypatch):
    # the pool's largest Lanczos solve, nh = 15000, where a full Gram-Schmidt
    # pass costs most and partial reorthogonalization skips the most of them
    _keeps_its_recorded_row(monkeypatch, "k5", 3000, 1, ("spectrum",))


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("name, n", [("k4", 150), ("k5", 120), ("c6", 100), ("petersen", 60)])
def test_dense_cells_keep_their_recorded_rows(monkeypatch, name, n, seed):
    # the whole dense pool: a simple extreme takes LAPACK's eigenvalues and
    # c6's +-2 takes QL's, so a selection rule that misreads one seed fails here
    _keeps_its_recorded_row(monkeypatch, name, n, seed)


@pytest.mark.parametrize("name, n", [("k4", 150), ("k5", 120), ("c6", 100), ("petersen", 60),
                                     ("k4", 1000), ("petersen", 500)])
def test_the_lanczos_basis_size_does_not_move_a_row(monkeypatch, name, n):
    # seed 1 of each kind of the certificate pool, dense and iterative, with a
    # basis of 32 and 64 vectors against the default 48
    real = liftlab.spectra.lanczos_extreme
    rows = {}
    for size in (32, 48, 64):
        monkeypatch.setattr(liftlab.spectra, "lanczos_extreme", functools.partial(real, max_basis=size))
        rows[size] = run_cell(base_from_name(name), n, 1)
    for size in (32, 64):
        for field in dataclasses.fields(ResultRow):
            if field.name == "wall_ms":
                continue
            got, want = getattr(rows[size], field.name), getattr(rows[48], field.name)
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), (size, field.name)
            else:
                assert got == want, (size, field.name)


def test_explain_star_branch_on_plain_lift():
    lift = sample_lift(K4, 40, SeededRng(5))
    report = explain_pipeline(lift, trials=4)
    assert report.branch == "star"
    assert report.threshold == pytest.approx(EXPLAIN_SPECTRAL_FACTOR * math.sqrt(3))
    assert report.lambda_star < report.threshold
    assert report.subgraph_value == pytest.approx(math.sqrt(3))
    assert report.bound_ok
    assert report.subgraph_vertices == ()
    assert report.reduction is None
    assert report.inspected_value is None


def test_explain_single_fibre_lift_is_trivial():
    report = explain_pipeline(identity_lift(K4, 1))
    assert report.branch == "star"
    assert report.lambda_star == 0.0
    assert report.bound_ok


def test_explain_forced_witness_surfaces_planted_clique():
    base = base_from_name("k6")
    lift = plant_clique(sample_lift(base, 60, SeededRng(0)), [0, 1, 2, 3, 4, 5])
    report = explain_pipeline(lift, force_witness=True, trials=20,
                              rng=SeededRng(0, 5))
    assert report.branch == "star"
    planted = {(i, 0) for i in range(6)}
    assert planted <= set(report.subgraph_vertices)
    # the planted clique dominates the spectrum, so the inspected subgraph
    # carries the full eigenvalue h - 1 = 5
    assert report.lambda_star == pytest.approx(5.0, abs=1e-6)
    assert report.inspected_value >= 5.0 - 1e-6
    assert report.alpha == len(report.subgraph_vertices)
    assert report.reduction is not None
    assert report.witness_bounds is not None
    assert report.bound_ok
    # the gathered induced adjacency gives the entry-by-entry oracle's eigenvalue
    eigs = symmetric_eigenvalues(oracle_induced(lift, list(report.subgraph_vertices)))
    assert report.inspected_value == max(float(eigs[0]), 0.0)


def test_explain_rejects_weak_reduction_levels():
    lift = sample_lift(K4, 20, SeededRng(1))
    for level, force in ((10.0, True), (10.0, False), (math.nan, False), (math.inf, True)):
        with pytest.raises(ConfigError):
            explain_pipeline(lift, level=level, force_witness=force, trials=4)


@pytest.mark.parametrize("force", [False, True], ids=["star", "witness"])
@pytest.mark.parametrize("trials", [0, 2.5, True])
def test_explain_checks_trials_before_the_spectrum(monkeypatch, trials, force):
    lift = sample_lift(K4, 20, SeededRng(1))
    monkeypatch.setattr(exp, "lambda_star", lambda *args, **kwargs: pytest.fail("solved"))
    with pytest.raises(ConfigError, match="trials"):
        explain_pipeline(lift, trials=trials, force_witness=force)


@pytest.mark.parametrize("level", ["30", None, True])
def test_explain_refuses_a_level_that_is_not_a_number(level):
    lift = sample_lift(K4, 20, SeededRng(1))
    with pytest.raises(ConfigError, match="level"):
        explain_pipeline(lift, level=level)


def test_explain_report_text_layout():
    lift = sample_lift(K4, 25, SeededRng(9))
    report = explain_pipeline(lift, force_witness=True, trials=6)
    text = explain_to_text(report)
    lines = text.splitlines()
    assert lines[0] == "explanation"
    assert lines[1] == "branch star"
    assert any(ln.startswith("alpha ") for ln in lines)
    assert any(ln.startswith("bound-ok ") for ln in lines)
    if report.subgraph_vertices:
        assert any(ln.startswith("subgraph ") for ln in lines)
