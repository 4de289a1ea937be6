"""Spans recorded from the benchmark's side of each layer boundary.

A span is (name, start, end, parent, run id). The tracer keeps spans in
memory; the caller writes them out once the benchmark ends. Span names are
"<layer>.<what>", so per-layer metrics are sums over names. Nothing in
divsat is patched: the tracer wraps the objects and functions the
benchmark passes into divsat's public API.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    count: int = 0  # work items the call handled, such as rows loaded

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    recording = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        """Add to a counter of the current run."""
        run = self.counts.setdefault(self.run_id, {})
        run[name] = run.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen by a counter of the current run."""
        run = self.counts.setdefault(self.run_id, {})
        run[name] = max(run.get(name, value), value)

    def wrap(self, inner, method: str, name: str):
        return _Traced(inner, method, name, self)

    def children(self, run_id: str) -> dict[int | None, list[Span]]:
        """Spans of one run grouped by the index of their parent span."""
        out: dict[int | None, list[Span]] = {}
        for span in self.spans:
            if span.run_id == run_id:
                out.setdefault(span.parent, []).append(span)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"index": index, **asdict(span)}) + "\n")


class NullTracer:
    """Same interface, no recording: the untraced in-process runs."""

    recording = False
    run_id = ""

    def span(self, name: str):
        return contextlib.nullcontext(Span(name, 0.0, 0.0, None, ""))

    def add(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass

    def wrap(self, inner, method: str, name: str):
        return inner


class _Traced:
    """Delegates to ``inner``; calls to ``method`` run inside a span."""

    def __init__(self, inner, method: str, name: str, tracer: Tracer):
        self._inner = inner
        self._method = method
        self._name = name
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._inner, attr)
        if attr != self._method:
            return target

        def traced(*args, **kwargs):
            with self._tracer.span(self._name):
                return target(*args, **kwargs)

        return traced
