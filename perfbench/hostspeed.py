"""A fixed reference job that measures how fast the host runs code of the
kind liftlab runs, at the moment it is measured.

On a shared host, the speed of interpreted Python and of small numpy
kernels drifts by 20-30% over minutes, and every liftlab timing drifts
with it. The worker has this job run before every item and run.py scales
each timing by NOMINAL_MS over the job's mean time in the same run, so a
timing reads as on a host where the job takes NOMINAL_MS. The job runs in
a helper process of its own (Probe), one run at a time while the worker
waits, so it never shares a heap or a memory peak with liftlab, and a
change to the program cannot move it.

Its three parts follow the three kinds of work in the workloads: dict and
tuple churn in the interpreter (the pattern layer), a dense symmetric
eigensolve (the dense spectrum) and projections of a long vector against
a basis (Lanczos with reorthogonalisation).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_MS = 100.0
WARMUP_RUNS = 3
TABLE_SIZE = 60_000
DENSE_SIZE = 450
LONG_SIZE = 15_000
BASIS_SIZE = 40
PROJECTIONS = 60


class HostSpeed:
    """The reference job with its inputs, built once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20101218)
        sym = rng.standard_normal((DENSE_SIZE, DENSE_SIZE))
        self._sym = sym + sym.T
        self._basis = np.linalg.qr(rng.standard_normal((LONG_SIZE, BASIS_SIZE)))[0]
        self._vec = rng.standard_normal(LONG_SIZE)
        self._order = rng.permutation(TABLE_SIZE).tolist()

    def run(self) -> float:
        """Run the job once and return its wall time in ms."""
        start = time.perf_counter()
        table = {}
        for i in self._order:
            table[(i % 389, i)] = i
        total = 0
        for i in reversed(self._order):
            total += table[(i % 389, i)]
        links = {}
        for (a, b), value in table.items():
            if value & 7 == 0:
                key = (a, b % 97)
                links[key] = links.get(key, 0) + 1
        np.linalg.eigvalsh(self._sym)
        vec = self._vec.copy()
        for _ in range(PROJECTIONS):
            vec = vec - self._basis @ (self._basis.T @ vec)
            vec /= np.linalg.norm(vec)
        return (time.perf_counter() - start) * 1000.0


class Probe:
    """The job in a helper process: ``run`` has it run once and returns its
    time. Use as a context manager; leaving it ends the helper and waits
    for it. The helper also ends when its input closes, so it does not
    outlive a worker that is killed."""

    def __enter__(self):
        self.samples_ms: list[float] = []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        return self

    def run(self) -> float:
        self._proc.stdin.write("run\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper ended with {self._proc.wait()}")
        elapsed = float(line)
        self.samples_ms.append(elapsed)
        return elapsed

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        return False


def serve() -> None:
    """Helper loop: one run of the job per "run" line on standard input."""
    job = HostSpeed()
    for _ in range(WARMUP_RUNS):
        job.run()
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(repr(job.run()), flush=True)


if __name__ == "__main__":
    serve()
