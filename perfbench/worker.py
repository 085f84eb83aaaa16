"""One workload in one fresh process: set-up, warm-up, then measured passes
or one traced pass, then the output checks. Prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count pinned; not meant to be run by hand.

  --mode setup    import, build the inputs, run the warm-up item, report
                  setup_s and the host-speed job's times, and exit.
  --mode measure  the same set-up, then the inputs round-robin, each at
                  least once, for as long as --seconds allows (tracing
                  off), or, with --trace 1, one pass in which each item
                  runs untraced and traced, in alternating order.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# host-speed runs after set-up in a process that only sets up
PROBE_SETUP_RUNS = 10


def import_liftlab():
    import liftlab

    where = Path(liftlab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"liftlab imported from {where}, not from this checkout")
    return liftlab


def run_item(item):
    """(seconds, output, error text): an item that raises is a failure to
    count, not a reason to stop."""
    start = time.perf_counter()
    try:
        out = item.run()
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc(limit=4)
    return time.perf_counter() - start, out, None


def problems(liftlab, item, out, error, reference):
    if error is not None:
        return [error]
    return checks.verify(item, workloads.outcome(liftlab, item, out), reference)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(liftlab, items, seconds, reference, probe):
    """Run the inputs round-robin, each at least once, until the next one
    would run past the budget, with the host-speed job before each item.
    Each output is checked as soon as its item ends, outside the timed
    region, and then dropped, so the live heap (and with it the garbage
    collector's work) does not grow over the run.

    Peak memory is read when the first round ends. Later rounds raise the
    peak by up to about 65 MB more, by an amount that depends on the order
    of the earlier items' allocations rather than on what any item needs."""
    samples = []
    failures = []
    last = {}
    peak = None
    start = time.perf_counter()
    for item in itertools.cycle(items):
        if item.key in last and (time.perf_counter() - start + last[item.key]
                                 + probe.samples_ms[-1] / 1000.0 > seconds):
            break
        probe.run()
        dt, out, error = run_item(item)
        last[item.key] = dt
        samples.append((item.key, dt * 1000.0))
        found = problems(liftlab, item, out, error, reference)
        if found:
            failures.append({"item": item.key, "problems": found})
        if len(samples) == len(items):
            peak = peak_rss_mb()
    return {
        "samples": samples,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": peak,
        "peak_rss_mb_whole_run": peak_rss_mb(),
    }


def traced_pass(liftlab, items, reference, out_path):
    tracer = spans.Tracer()
    patches = layers.patches(liftlab)
    totals = {False: 0.0, True: 0.0}
    failures = []
    attempted = 0
    for index, item in enumerate(items):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(patches):
                    with tracer.item(index, item.root, item.root.split(".")[0]):
                        dt, out, error = run_item(item)
            else:
                dt, out, error = run_item(item)
            totals[traced] += dt
            attempted += 1
            found = problems(liftlab, item, out, error, reference)
            if found:
                failures.append({"item": item.key, "traced": traced, "problems": found})
    selfs = spans.self_times(tracer.spans)
    breakdown = spans.item_breakdown(tracer.spans, selfs)
    for entry in breakdown:
        if abs(sum(entry["self_ms"].values()) - entry["wall_ms"]) > 1e-6 * max(1.0, entry["wall_ms"]):
            raise RuntimeError(f"self times do not partition item {entry['item']}: {entry}")
    overhead = 100.0 * (totals[True] / totals[False] - 1.0)
    metrics = layers.layer_metrics(tracer.spans, selfs, overhead)

    counts = {}
    for index, item in enumerate(items):
        counts[item.key] = layers.layer_counts([s for s in tracer.spans if s.item == index])
    recorded = reference.get("counts", {})
    moved = {key: {"now": value, "recorded": recorded.get(key)}
             for key, value in counts.items() if recorded.get(key) != value}

    OUT_DIR.mkdir(exist_ok=True)
    out_path.write_text(json.dumps({
        "spans": [s.to_json() for s in tracer.spans],
        "items": [dict(entry, key=items[entry["item"]].key) for entry in breakdown],
        "counts": counts,
        "metrics": metrics,
    }))
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": metrics,
        "items": breakdown,
        "counts": counts,
        "counts_repeat": not moved,
        "counts_moved": moved,
        "trace_file": str(out_path.relative_to(ROOT)),
    }


def environment():
    import numpy

    info = {"numpy": numpy.__version__, "pinned_cpus": sorted(os.sched_getaffinity(0))}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)

    # the worker and its host-speed helper share one CPU, so the helper runs
    # on the CPU the items run on, and never on one just woken from idle
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    liftlab = import_liftlab()
    reference = checks.load_reference()
    items = workloads.build(liftlab, args.workload, args.seed)
    _, _, error = run_item(items[0])
    if error is not None:
        print(error, file=sys.stderr)
        return 1
    result = {"setup_s": time.perf_counter() - STARTED,
              "inputs": [item.key for item in items]}
    if args.mode == "measure" and args.trace:
        out_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        result.update(traced_pass(liftlab, items, reference, out_path))
    else:
        with hostspeed.Probe() as probe:
            if args.mode == "measure":
                probe.run()
                result.update(measure(liftlab, items, args.seconds, reference, probe))
            else:
                for _ in range(PROBE_SETUP_RUNS):
                    probe.run()
        result["host_ms"] = probe.samples_ms
    if args.mode == "measure":
        result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
