"""Harness-side span recorder.

Spans are recorded *by the benchmark*, around calls into the program's
public functions; nothing inside ``src/`` knows about them.  A request
(one measured op, one probe iteration, one ingested document) owns one
root span and the spans opened beneath it on the same thread.  Spans
stay in memory and are written out once, after the measurement, with a
per-layer self-time table: a span's self time is its duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    request: str | None
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Collects spans from any thread; each thread nests its own."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str, layer: str, request: str | None, start_ns: int) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        return Span(
            next(self._ids),
            parent.id if parent else None,
            request,
            name,
            layer,
            start_ns,
        )

    @contextlib.contextmanager
    def span(self, name: str, layer: str, request: str | None = None):
        """Time the enclosed block as a child of the thread's open span."""
        span = self._open(name, layer, request, time.perf_counter_ns())
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, layer: str, start_ns: int, end_ns: int) -> Span:
        """Record an interval whose start is only known in hindsight (a
        batch that ends when its commit callback fires)."""
        span = self._open(name, layer, None, start_ns)
        span.end_ns = end_ns
        self.spans.append(span)
        return span

    def median_ms(self, name: str) -> float | None:
        values = [span.ms for span in self.spans if span.name == name]
        return statistics.median(values) if values else None

    def self_time_by_layer(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, total and self milliseconds."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            covered = _covered_ns(span, children.get(span.id, ()))
            row = table.setdefault(span.layer, {"spans": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["spans"] += 1
            row["total_ms"] += span.ms
            row["self_ms"] += span.ms - covered / 1e6
        return table

    def write(self, path: str, **header) -> None:
        payload = {
            **header,
            "self_time_by_layer": self.self_time_by_layer(),
            "spans": [asdict(span) for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _covered_ns(parent: Span, kids) -> int:
    """Length of the union of the child intervals, clipped to the parent."""
    covered = 0
    reach = parent.start_ns
    for kid in sorted(kids, key=lambda span: span.start_ns):
        start = max(kid.start_ns, reach)
        end = min(kid.end_ns, parent.end_ns)
        if end > start:
            covered += end - start
            reach = end
    return covered


def span(tracer: Tracer | None, name: str, layer: str, request: str | None = None):
    """``tracer.span(...)``, or a no-op when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, layer, request)
