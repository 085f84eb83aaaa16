"""Span recording from outside the library, and the self-time arithmetic.

The tracer replaces public functions on the ``liftlab`` modules with
wrappers that record one span per call: name, layer, start, end, parent
span and item id, plus counts read from the returned report. Spans are
kept in memory and written out once the run ends. Nothing here imports
``liftlab``; the worker passes the modules in.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    item: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "item": self.item,
                "counts": self.counts}


class Tracer:
    """Collects spans for one process; only one thread records at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._item = -1
        self._origin = time.perf_counter()

    @contextmanager
    def item(self, item_id: int, name: str, layer: str):
        """Root span of one workload item; every span inside carries its id."""
        self._item = item_id
        try:
            with self.span(name, layer):
                yield
        finally:
            self._item = -1

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer, 0.0, 0.0, parent, self._item)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record.end = time.perf_counter() - self._origin
            self._stack.pop()

    def wrap(self, name: str, layer: str, fn, count=None):
        """A stand-in for fn that records a span per call. ``count`` maps
        (args, result) to a dict of counts, read after the span has ended so
        that reading a report is not charged to the layer."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layer) as record:
                out = fn(*args, **kwargs)
            if count is not None:
                record.counts.update(count(args, out))
            return out

        return traced

    @contextmanager
    def installed(self, patches):
        """Swap each (module, attribute, layer, count) for a traced wrapper
        and put every original back on exit."""
        saved = []
        try:
            for module, attr, layer, count in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{layer}.{attr}", layer, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are clipped to the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [span.duration - covered(children.get(i, ())) for i, span in enumerate(spans)]


def layer_self_ms(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        out[span.layer] = out.get(span.layer, 0.0) + own * 1000.0
    return out


def item_breakdown(spans: list[Span], selfs: list[float]) -> list[dict]:
    """Per item: the root span's wall time and the layer self times, which
    partition it when every span nests inside the root."""
    out: dict[int, dict] = {}
    for span, own in zip(spans, selfs):
        entry = out.setdefault(span.item, {"item": span.item, "wall_ms": 0.0, "self_ms": {}})
        if span.parent is None:
            entry["wall_ms"] += span.duration * 1000.0
        layers = entry["self_ms"]
        layers[span.layer] = layers.get(span.layer, 0.0) + own * 1000.0
    return [out[k] for k in sorted(out)]
