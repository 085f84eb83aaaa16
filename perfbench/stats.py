"""Summary statistics for per-item wall times."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that still
    has at least TAIL_BEYOND samples above it.

    With N sorted samples that is the (N - 10)-th smallest, the
    100 (N - 10) / N percentile. With ten samples or fewer no percentile
    qualifies, and the maximum is reported as the 100th percentile, so the
    count that comes with it shows how little it rests on.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, count
    rank = count - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / count, count
