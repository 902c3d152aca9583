"""reproscope sinks: where finished span trees go.

Two built-ins, both subscribing to :meth:`repro.obs.tracer.Tracer.add_sink`
and receiving every finished *root* span:

* :class:`InMemoryAggregator` — folds spans into per-tree-path statistics
  (calls, total/self seconds, counters); the data behind ``--profile``
  breakdowns and the overhead tests.
* :class:`ChromeTraceSink` — Chrome trace-event JSON (complete ``"X"``
  events) loadable in ``chrome://tracing`` or https://ui.perfetto.dev.

Sinks are duck-typed: anything with ``on_root_span(span)`` (and optionally
``close()``) can subscribe.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import threading
from typing import Any, TextIO

from .tracer import Span

__all__ = [
    "AggregatedNode",
    "ChromeTraceSink",
    "InMemoryAggregator",
]


class AggregatedNode:
    """Accumulated statistics of every span sharing one tree path."""

    __slots__ = ("path", "calls", "seconds", "self_seconds", "counters")

    def __init__(self, path: tuple[str, ...]) -> None:
        self.path = path
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.counters: dict[str, float] = {}

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def fold(self, span: Span) -> None:
        self.calls += 1
        self.seconds += span.duration
        self.self_seconds += span.self_seconds
        for k, v in span.counters.items():
            self.counters[k] = self.counters.get(k, 0.0) + v

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": list(self.path),
            "calls": self.calls,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "counters": dict(self.counters),
        }


class InMemoryAggregator:
    """Fold finished span trees into per-path totals.

    The aggregation key is the span's *path* (root name down to its own),
    so ``("SCF-iteration", "ChFES", "CF")`` stays distinct from a CF span
    recorded elsewhere — this is what keeps the printed breakdown
    hierarchical.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._nodes: dict[tuple[str, ...], AggregatedNode] = {}
        self.roots_seen = 0

    def on_root_span(self, root: Span) -> None:
        with self._lock:
            self.roots_seen += 1
            for _, span in root.walk():
                path = span.path()
                node = self._nodes.get(path)
                if node is None:
                    node = self._nodes[path] = AggregatedNode(path)
                node.fold(span)

    def nodes(self) -> list[AggregatedNode]:
        """All aggregated paths in stable (preorder-compatible) order."""
        with self._lock:
            return [self._nodes[p] for p in sorted(self._nodes)]

    def get(self, *path: str) -> AggregatedNode | None:
        with self._lock:
            return self._nodes.get(tuple(path))

    def total_seconds(self, name: str) -> float:
        """Summed duration of every aggregated path ending in ``name``."""
        with self._lock:
            return sum(
                n.seconds for n in self._nodes.values() if n.path[-1] == name
            )

    def counter_total(self, counter: str) -> float:
        """Sum of one counter over *leaf-attributed* spans (no double count).

        Counters accumulate on the span they were recorded on, so summing
        over all paths is already double-counting-free.
        """
        with self._lock:
            return sum(n.counters.get(counter, 0.0) for n in self._nodes.values())

    def clear(self) -> None:
        with self._lock:
            self._nodes.clear()
            self.roots_seen = 0

    def close(self) -> None:
        """Part of the sink protocol; nothing to flush."""


class ChromeTraceSink:
    """Export spans as Chrome trace events (Perfetto-compatible).

    Buffers complete-duration (``"ph": "X"``) events and writes a single
    ``{"traceEvents": [...]}`` JSON object on :meth:`close` — the format
    both ``chrome://tracing`` and https://ui.perfetto.dev load directly.
    Timestamps are microseconds relative to the tracer's epoch.
    """

    def __init__(
        self,
        target: str | os.PathLike[str] | TextIO,
        epoch: float = 0.0,
        process_name: str = "repro",
    ) -> None:
        self._lock = threading.Lock()
        self.epoch = epoch
        self._target = target
        self._events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": os.getpid(),
                "tid": 0,
                "args": {"name": process_name},
            }
        ]

    def on_root_span(self, root: Span) -> None:
        events = []
        for _, span in root.walk():
            args: dict[str, Any] = dict(span.attrs)
            args.update(span.counters)
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (span.t_start - self.epoch) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": os.getpid(),
                    "tid": span.thread_id,
                    "args": args,
                }
            )
        with self._lock:
            self._events.extend(events)

    @property
    def events(self) -> list[dict[str, Any]]:
        """Snapshot of the buffered trace events (metadata event included)."""
        with self._lock:
            return list(self._events)

    def trace_object(self) -> dict[str, Any]:
        """The complete Chrome-trace JSON object buffered so far."""
        with self._lock:
            return {"traceEvents": list(self._events), "displayTimeUnit": "ms"}

    def close(self) -> None:
        obj = self.trace_object()
        if isinstance(self._target, (str, os.PathLike)):
            path = pathlib.Path(self._target)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        elif isinstance(self._target, io.TextIOBase) or hasattr(self._target, "write"):
            json.dump(obj, self._target)
