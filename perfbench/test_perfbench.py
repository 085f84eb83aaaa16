"""Self-tests for the benchmark harness: python3 -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stats import tail_percentile  # noqa: E402

REFERENCE = checks.load_reference()


def span(name, start, end, parent=None, layer=None):
    return spans.Span(name, layer or name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
        span("c", 8.0, 12.0, parent=0),  # overlaps b and runs past the root
    ]
    selfs = spans.self_times(tree)
    # the root's children cover [1, 4] and [5, 10]
    assert selfs == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_nested_spans_partition_the_root():
    tracer = spans.Tracer()
    with tracer.item(7, "root", "experiment"):
        with tracer.span("x", "spectra"):
            with tracer.span("y", "eigensolve"):
                pass
            with tracer.span("y", "eigensolve"):
                pass
        with tracer.span("z", "dyadic"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    assert all(s.item == 7 for s in tracer.spans)
    selfs = spans.self_times(tracer.spans)
    (entry,) = spans.item_breakdown(tracer.spans, selfs)
    assert sum(entry["self_ms"].values()) == pytest.approx(entry["wall_ms"], rel=1e-12)
    assert set(entry["self_ms"]) == {"experiment", "spectra", "eigensolve", "dyadic"}


def test_installed_wrappers_record_counts_and_restore():
    def solve(x):
        return types.SimpleNamespace(iterations=x)

    module = types.SimpleNamespace(solve=solve)
    tracer = spans.Tracer()
    count = (lambda args, out: {"iterations": out.iterations})
    with tracer.installed([(module, "solve", "eigensolve", count)]):
        assert module.solve is not solve
        module.solve(5)
    assert module.solve is solve
    (record,) = tracer.spans
    assert record.name == "eigensolve.solve" and record.counts == {"iterations": 5}


def test_tail_rule_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(30, 0, -1)]
    value, percentile, count = tail_percentile(samples)
    assert (value, count) == (20.0, 30)
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert sum(s > value for s in samples) == 10
    value, percentile, count = tail_percentile(range(1, 12))
    assert (value, count) == (1, 11) and percentile == pytest.approx(100.0 / 11)


def test_tail_rule_falls_back_to_the_maximum():
    assert tail_percentile([3.0, 9.0, 1.0]) == (9.0, 100.0, 3)
    assert tail_percentile(range(10)) == (9, 100.0, 10)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_timings_are_put_at_the_host_nominal_speed():
    slow = 2.0 * run.NOMINAL_MS
    measured = {
        "inputs": ["a", "b", "c"],
        "samples": [("a", 30.0), ("b", 10.0), ("c", 50.0), ("a", 20.0), ("b", 14.0),
                    ("c", 40.0), ("a", 25.0)],
        "attempted": 7, "failed": 1, "peak_rss_mb": 64.0,
        "setup_s": 2.0, "host_ms": [slow - 10.0, slow + 10.0],
    }
    setups = [measured, {"setup_s": 1.0, "host_ms": [run.NOMINAL_MS]},
              {"setup_s": 3.0, "host_ms": [run.NOMINAL_MS]}]
    metrics, detail = run.end_to_end(measured, setups)
    # every time halves: the host ran the job at half its nominal speed
    assert metrics["items_per_s"] == pytest.approx(3 / ((25.0 + 12.0 + 45.0) / 2 / 1000.0))
    assert metrics["item_ms_p50"] == pytest.approx(12.5)
    assert metrics["item_ms_tail"] == pytest.approx(22.5)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["pass_ratio"] == pytest.approx(6 / 7)
    assert (detail["tail_percentile"], detail["tail_samples"], detail["repeats"]) == (100.0, 3, 2)
    assert detail["host_scale"] == pytest.approx(0.5)
    assert detail["item_ms_by_input"]["a"] == [30.0, 20.0, 25.0]


def test_host_speed_helper_runs_the_job_and_ends():
    import hostspeed

    with hostspeed.Probe() as probe:
        assert probe.run() > 0 and probe.run() > 0
    assert len(probe.samples_ms) == 2
    assert probe._proc.returncode == 0


def _a_sweep_reference():
    key = next(k for k in REFERENCE["outputs"] if k.startswith("k4:n=150"))
    return key, REFERENCE["outputs"][key]["row"]


def _perturb(row, column, change):
    fields = row.split(",")
    at = REFERENCE["columns"].index(column)
    fields[at] = change(fields[at])
    return ",".join(fields)


def test_checker_rejects_a_perturbed_lambda_star():
    _, row = _a_sweep_reference()
    tol = REFERENCE["tolerance"]
    compare = (lambda other: checks.compare_row(REFERENCE["columns"], row, other,
                                                 tol["rtol"], tol["atol"]))
    assert compare(row) == []
    nudged = _perturb(row, "lambda_star", lambda v: repr(float(v) * (1 + 1e-12)))
    assert compare(nudged) == []
    moved = _perturb(row, "lambda_star", lambda v: repr(float(v) * (1 + 1e-6)))
    assert len(compare(moved)) == 1 and compare(moved)[0].startswith("lambda_star")
    flipped = _perturb(row, "dyprop_met", lambda v: "0" if v == "1" else "1")
    assert compare(flipped)[0].startswith("dyprop_met")


def test_checker_rejects_a_changed_transcript():
    key = next(k for k in REFERENCE["outputs"] if k.startswith("simplex:"))
    expected = REFERENCE["outputs"][key]
    item = workloads.Item(key, "census", lambda: None, "census.item")
    assert checks.verify(item, dict(expected), REFERENCE) == []
    changed = dict(expected, reduce_general=checks.digest("reduction\nbranch general\n"))
    assert checks.verify(item, changed, REFERENCE) == ["reduce_general transcript changed"]


def test_dense_cross_check_against_the_library():
    import liftlab

    lift = liftlab.sample_lift(liftlab.complete_graph(4), 7, liftlab.SeededRng(3))
    rep = liftlab.lambda_star(lift, method="dense")
    assert checks.cross_check(rep.lambda_star, lift) == []
    assert checks.cross_check(rep.lambda_star * (1 + 1e-6), lift) != []


def test_reference_covers_every_input_a_seed_can_pick():
    for name in workloads.WORKLOADS:
        for spec, index in workloads.instances(name):
            if name in workloads.SWEEPS:
                base, n, stages = spec
                key = workloads.sweep_key(base, n, stages, index + 1)
            else:
                key = workloads.census_key(spec, index)
            assert key in REFERENCE["outputs"] and key in REFERENCE["counts"]
        drawn = workloads.picks(name, 11)
        assert drawn == workloads.picks(name, 11)
        assert len(set(drawn)) == len(drawn) == sum(d for _, d, _ in workloads.kinds(name))
        assert set(drawn) <= set(workloads.instances(name))


def test_benchmark_json_matches_the_printed_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
