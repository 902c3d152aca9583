"""reproscope core: the thread-safe hierarchical span tracer.

A *span* is one timed region of the pipeline, named after the paper's
kernel labels where one exists (``EP``, ``DH``, ``CF``, ``CholGS-S``,
``RR-P``, ``DC``, ...; see :mod:`repro.obs.kernels`).  Spans nest: entering
``trace_region("CF")`` inside an open ``ChFES`` span records CF as a child,
so a full SCF run produces the per-iteration wall-time tree that Table 3
of the paper reports flat.

Design constraints, in order:

1. **Zero dependencies** — stdlib only, importable before numpy.
2. **Near-zero overhead when disabled** — ``REPRO_TRACE=0`` (or
   :func:`set_enabled`\\ ``(False)``) routes ``trace_region`` to a slotted
   no-op span that only reads the clock twice, so timing consumers (the
   SCF ``history`` seconds, :class:`~repro.hpc.flops.FlopLedger`) keep
   working with tracing off.
3. **Thread safety** — each thread keeps its own span stack
   (``threading.local``); finished *root* spans are handed to sinks under
   a lock.

All wall-clock reads in this repository are supposed to flow through this
module (or :class:`Stopwatch` below) — reprolint rule R009 enforces it.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, ContextManager, Iterable, TypeVar

from repro.tools import sanitize as _sanitize

__all__ = [
    "Span",
    "Stopwatch",
    "Tracer",
    "add_counter",
    "add_event",
    "current_span",
    "get_tracer",
    "is_enabled",
    "kernel_region",
    "set_enabled",
    "trace_region",
    "traced",
]

F = TypeVar("F", bound=Callable[..., Any])

#: the single wall-clock source of the repository
_clock = time.perf_counter


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


_ENABLED: bool = _env_enabled()


def is_enabled() -> bool:
    """Whether span collection is active (``REPRO_TRACE`` kill switch)."""
    return _ENABLED


def set_enabled(on: bool) -> bool:
    """Flip span collection at runtime; returns the previous state."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(on)
    return prev


class Stopwatch:
    """Minimal elapsed-seconds reader (the sanctioned raw-timing primitive).

    For code that wants a number, not a span — examples, benchmark
    harnesses, progress printing.  ``elapsed()`` is seconds since
    construction or the last :meth:`restart`.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = _clock()

    def elapsed(self) -> float:
        return _clock() - self._t0

    def restart(self) -> float:
        """Reset the origin; returns the elapsed seconds up to the reset."""
        now = _clock()
        dt = now - self._t0
        self._t0 = now
        return dt


class Span:
    """One timed, attributed, counter-carrying region of the trace tree."""

    __slots__ = (
        "name", "attrs", "counters", "children", "parent",
        "t_start", "t_end", "thread_id", "events",
    )

    def __init__(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attrs: dict[str, Any] = attrs or {}
        self.counters: dict[str, float] = {}
        self.events: list[tuple[str, float, dict[str, Any]]] = []
        self.children: list[Span] = []
        self.parent: Span | None = None
        self.t_start: float = 0.0
        self.t_end: float = 0.0
        self.thread_id: int = 0

    # -- timing --------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Wall seconds from enter to exit (0.0 while still open)."""
        return max(self.t_end - self.t_start, 0.0)

    def elapsed(self) -> float:
        """Wall seconds since enter, usable while the span is still open."""
        return (_clock() if self.t_end == 0.0 else self.t_end) - self.t_start

    @property
    def self_seconds(self) -> float:
        """Duration minus the children's durations (exclusive time)."""
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    # -- counters ------------------------------------------------------------
    def add_counter(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    # -- events --------------------------------------------------------------
    def add_event(self, name: str, **attrs: Any) -> None:
        """Record a timestamped point event (e.g. a retry) on this span."""
        self.events.append((name, _clock(), attrs))

    # -- traversal -----------------------------------------------------------
    def walk(self, depth: int = 0) -> Iterable[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` depth-first, self first."""
        yield depth, self
        for c in self.children:
            yield from c.walk(depth + 1)

    def path(self) -> tuple[str, ...]:
        parts: list[str] = []
        s: Span | None = self
        while s is not None:
            parts.append(s.name)
            s = s.parent
        return tuple(reversed(parts))

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, depth-first."""
        for _, s in self.walk():
            if s.name == name:
                return s
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class _NoopSpan:
    """Disabled-mode span: records only its own enter/exit clock reads.

    Keeps ``duration``/``elapsed()`` meaningful so callers that feed
    timing into results (SCF history, the FLOP ledger) do not need a
    tracing-enabled code path — everything else is a no-op.
    """

    __slots__ = ("t_start", "t_end")

    name = ""
    attrs: dict[str, Any] = {}
    counters: dict[str, float] = {}
    events: list[tuple[str, float, dict[str, Any]]] = []
    children: list[Span] = []

    def __init__(self) -> None:
        self.t_start = 0.0
        self.t_end = 0.0

    @property
    def duration(self) -> float:
        return max(self.t_end - self.t_start, 0.0)

    def elapsed(self) -> float:
        return (_clock() if self.t_end == 0.0 else self.t_end) - self.t_start

    def add_counter(self, name: str, value: float) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        self.t_start = _clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self.t_end = _clock()


class Tracer:
    """Owner of the per-thread span stacks and the sink subscriptions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sinks: list[Any] = []
        self._san_tag = f"Tracer.sinks:{id(self)}"
        #: perf_counter origin shared by every span (Chrome-trace timebase)
        self.epoch: float = _clock()

    # -- sinks ---------------------------------------------------------------
    def add_sink(self, sink: Any) -> Any:
        """Subscribe a sink; it receives each finished *root* span."""
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                self._sinks.append(sink)
            finally:
                if san is not None:
                    san.write_end(self._san_tag)
        return sink

    def remove_sink(self, sink: Any) -> None:
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                if sink in self._sinks:
                    self._sinks.remove(sink)
            finally:
                if san is not None:
                    san.write_end(self._san_tag)

    def sinks(self) -> list[Any]:
        with self._lock:
            return list(self._sinks)

    # -- span stack ----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def push(self, span: Span) -> None:
        stack = self._stack()
        span.parent = stack[-1] if stack else None
        span.thread_id = threading.get_ident()
        if span.parent is not None:
            span.parent.children.append(span)
        stack.append(span)
        span.t_start = _clock()

    def pop(self, span: Span) -> None:
        span.t_end = _clock()
        stack = self._stack()
        # tolerate exceptions unwinding several spans at once
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            if dangling.t_end == 0.0:
                dangling.t_end = span.t_end
        if stack:
            stack.pop()
        if span.parent is None:
            with self._lock:
                sinks = list(self._sinks)
            for sink in sinks:
                sink.on_root_span(span)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer (sinks subscribe here)."""
    return _TRACER


def current_span() -> Span | None:
    """Innermost open span of the calling thread (None outside any span)."""
    return _TRACER.current() if _ENABLED else None


def add_counter(name: str, value: float) -> None:
    """Accumulate a metric (FLOPs, halo bytes, iterations) on the current span.

    No-op when tracing is disabled or no span is open — meters that also
    feed other consumers (e.g. :class:`~repro.hpc.cluster.TrafficReport`)
    stay authoritative regardless.
    """
    if _ENABLED:
        span = _TRACER.current()
        if span is not None:
            span.add_counter(name, value)


def add_event(name: str, **attrs: Any) -> None:
    """Record a point event (a retry, a recovery, a fallback) on the current
    span.  No-op when tracing is disabled or no span is open — resilience
    bookkeeping must never change the numerics of an untraced run.
    """
    if _ENABLED:
        span = _TRACER.current()
        if span is not None:
            span.add_event(name, **attrs)


class _Region:
    """Reusable ``with`` wrapper binding a span to the global tracer."""

    __slots__ = ("_span", "_ledger")

    def __init__(self, span: Span, ledger: Any = None) -> None:
        self._span = span
        self._ledger = ledger

    def __enter__(self) -> Span:
        _TRACER.push(self._span)
        return self._span

    def __exit__(self, *exc: object) -> None:
        _TRACER.pop(self._span)
        if self._ledger is not None:
            self._ledger.charge_seconds(self._span.name, self._span.duration)


class _NoopRegion:
    """Disabled-mode region that still charges ledgers with measured time."""

    __slots__ = ("_name", "_ledger", "_span")

    def __init__(self, name: str, ledger: Any) -> None:
        self._name = name
        self._ledger = ledger
        self._span = _NoopSpan()

    def __enter__(self) -> _NoopSpan:
        return self._span.__enter__()

    def __exit__(self, *exc: object) -> None:
        self._span.__exit__()
        if self._ledger is not None:
            self._ledger.charge_seconds(self._name, self._span.duration)


def trace_region(name: str, **attrs: Any) -> ContextManager[Any]:
    """Open a named span for the duration of a ``with`` block.

    ::

        with trace_region("ChFES", kpoint=k, spin=s) as span:
            ...
        seconds = span.duration

    Keyword arguments become span attributes (shown in the Chrome trace's
    ``args`` pane).  With tracing disabled the returned object still times
    the block but records nothing else.
    """
    if not _ENABLED:
        return _NoopSpan()
    return _Region(Span(name, attrs or None))


def kernel_region(name: str, ledger: Any = None, **attrs: Any) -> ContextManager[Any]:
    """`trace_region` that also charges a FLOP-ledger's wall time.

    The single construct behind every instrumented numerical kernel: one
    span in the trace tree *and* (when a ledger is threaded through, as the
    SCF kernels do) ``ledger.charge_seconds(name, duration)`` on exit —
    so the trace and the ledger agree by construction.  ``ledger`` is
    duck-typed on ``charge_seconds`` to keep this module dependency-free.
    """
    if not _ENABLED:
        return _NoopRegion(name, ledger) if ledger is not None else _NoopSpan()
    return _Region(Span(name, attrs or None), ledger)


def traced(name: str | None = None, **attrs: Any) -> Callable[[F], F]:
    """Decorator form of :func:`trace_region`.

    ::

        @traced("MLXC-train")
        def train(self, ...): ...

    Defaults to the function's ``__qualname__`` when no name is given.
    """

    def deco(fn: F) -> F:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return fn(*args, **kwargs)
            with trace_region(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco
