"""liftlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. Each run starts fresh worker processes (worker.py) with
the BLAS thread count pinned, so peak memory and set-up time belong to this
workload alone. Every workload runs serially.

--trace 0  end-to-end metrics, tracing off, from the inputs run
           round-robin for --seconds: items per second, median and tail
           item time, peak resident memory over the first round of the
           inputs, set-up time (median of SETUP_RUNS fresh processes) and
           the share of items that passed.
           Every timing is put at the host's nominal speed, measured by a
           fixed job that runs before each item (see end_to_end).
--trace 1  per-layer metrics from one traced pass over the same inputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
provenance and detail (tail percentile and sample count, failures). The
exit code is 0 when the run completed, whether or not its outputs
checked; 2 for bad arguments or a checkout without the program; 1 when a
worker process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_MS  # noqa: E402
from layers import UNITS as LAYER_UNITS  # noqa: E402
from stats import tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0

UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env["LIFTLAB_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker ({mode}) printed no result")
    return json.loads(lines[-1])


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(path.relative_to(ROOT).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def host_scale(host_ms: list[float]) -> float:
    """Factor that puts a process's timings at the host's nominal speed:
    NOMINAL_MS over the mean time of the host-speed job in that process."""
    return NOMINAL_MS / statistics.mean(host_ms)


def end_to_end(measured: dict, setups: list[dict]) -> tuple[dict, dict]:
    """(metrics, detail) from a measuring worker's samples and the set-up
    reports of fresh processes (the measuring one among them).

    The inputs ran round-robin, several times each, each item right after
    a run of the host-speed job (hostspeed.py). Every timing is scaled by
    host_scale of its own process: the host's speed drifts by 20-30% over
    minutes, and the scaled times hold still where the raw ones do not.
    The raw times and the scale are in the detail.
    """
    scale = host_scale(measured["host_ms"])
    by_input = {key: [] for key in measured["inputs"]}
    for key, ms in measured["samples"]:
        by_input[key].append(ms)
    typical = [statistics.median(times) * scale for times in by_input.values()]
    mean_total = sum(statistics.mean(times) for times in by_input.values()) * scale
    tail, percentile, samples = tail_percentile(typical)
    attempted = measured["attempted"]
    metrics = {
        "items_per_s": 1000.0 * len(by_input) / mean_total,
        "item_ms_p50": statistics.median(typical),
        "item_ms_tail": tail,
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] * host_scale(s["host_ms"]) for s in setups),
        "pass_ratio": (attempted - measured["failed"]) / attempted,
    }
    detail = {"tail_percentile": percentile, "tail_samples": samples,
              "repeats": min(len(times) for times in by_input.values()),
              "host_ms_mean": statistics.mean(measured["host_ms"]), "host_scale": scale,
              "peak_rss_mb_whole_run": measured.get("peak_rss_mb_whole_run"),
              "measured_s": sum(ms for _, ms in measured["samples"]) / 1000.0,
              "setup_runs_s": [s["setup_s"] for s in setups],
              "setup_host_scale": [host_scale(s["host_ms"]) for s in setups],
              "item_ms_by_input": by_input}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "liftlab" / "__init__.py").is_file():
        print(f"no liftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    info = provenance(args)
    try:
        measured = run_worker(args, "measure", deadline)
        if args.trace:
            metrics = measured["metrics"]
            detail = {key: measured[key] for key in
                      ("items", "counts_repeat", "counts_moved", "trace_file")}
            units = LAYER_UNITS
        else:
            setups = [measured]
            setups += [run_worker(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
            metrics, detail = end_to_end(measured, setups)
            units = UNITS
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    info.update(measured["environment"])
    detail.update(inputs=measured["inputs"], failures=measured["failures"])
    print(json.dumps({"provenance": info, "detail": detail}))
    print(json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
