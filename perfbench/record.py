"""Record the reference outputs and layer counts the benchmark checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every input each named workload can draw (all of them by default)
once, traced, and writes its CSV row without wall_ms, or its reduction
transcript digests, and its per-layer counts to reference.json. Rows of
dense-path cells must pass the eigvalsh cross-check before they are recorded. Record
only at a commit whose outputs are known good: every later run is compared
against this file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the pinning run.py gives its workers, set before numpy loads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LIFTLAB_THREADS"):
    os.environ[_name] = "1"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import liftlab  # noqa: E402

TOLERANCE = {"rtol": 1e-9, "atol": 1e-15}


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    path = checks.REFERENCE_PATH
    reference = checks.load_reference(path) if path.exists() else {}
    reference["tolerance"] = TOLERANCE
    reference["columns"] = [c for c in liftlab.experiment.CSV_COLUMNS if c != "wall_ms"]
    outputs = reference.setdefault("outputs", {})
    counts = reference.setdefault("counts", {})
    tracer = spans.Tracer()
    for name in names:
        for number, (spec, index) in enumerate(workloads.instances(name)):
            item = workloads.make_item(liftlab, name, spec, index)
            with tracer.installed(layers.patches(liftlab)):
                with tracer.item(number, item.root, item.root.split(".")[0]):
                    out = item.run()
            outcome = workloads.outcome(liftlab, item, out)
            if item.kind == "sweep":
                problems = list(outcome["failures"])
                if item.lift is not None:
                    problems += checks.cross_check(outcome["lambda_star"], item.lift)
                if problems:
                    raise SystemExit(f"{item.key}: {problems}")
                outputs[item.key] = {"row": outcome["row"]}
            else:
                outputs[item.key] = outcome
            counts[item.key] = layers.layer_counts([s for s in tracer.spans if s.item == number])
            tracer.spans.clear()
            print(name, item.key, counts[item.key], flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
