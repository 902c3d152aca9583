"""reprosan — opt-in runtime race sanitizer for shared numerical state.

The static concurrency pass (reprolint R013, R014, R016) proves lock
discipline where it can *see* it; this module checks it where it can't:
at runtime, across module boundaries, under the real thread
interleavings of the serve runtime's slice workers.

Armed via ``REPRO_SANITIZE=1`` in the environment (checked once at
import), or programmatically with :func:`arm` / the :func:`sanitized`
context manager.  Instrumented sites follow the same zero-overhead
pattern as the fault-injection guard (``_faults._PLAN is not None``)::

    san = _sanitize._STATE
    if san is not None:
        san.write_begin(tag)
    try:
        ...  # the guarded mutation
    finally:
        if san is not None:
            san.write_end(tag)

Unarmed, each site costs one module-attribute load and a ``None``
check — no locks, no allocation, bit-identical numerics.

Armed, the :class:`Sanitizer` maintains three structures:

* **write windows** — ``write_begin(tag)`` / ``write_end(tag)`` bracket
  a mutation of the resource named ``tag``.  A second thread entering a
  window another thread holds raises :class:`RaceReport` (same-thread
  re-entry is fine: the windows are reentrant).  Correctly locked call
  sites place the window *inside* the lock, so a window collision means
  the lock discipline is broken.
* **write versions** — each completed window bumps a per-tag counter,
  so tests can assert "exactly N mutations happened".
* **buffer ownership** — :meth:`Sanitizer.claim` tags a pooled buffer
  with the acquiring thread; :meth:`Sanitizer.assert_owned` raises
  :class:`RaceReport` when a buffer is consumed on a different thread
  (workspace pools are thread-local by design — a cross-thread buffer
  is a pooling bug).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "RaceReport",
    "Sanitizer",
    "arm",
    "disarm",
    "armed",
    "state",
    "sanitized",
]


class RaceReport(RuntimeError):
    """A concurrent unsynchronized access detected by the sanitizer."""

    def __init__(
        self,
        resource: str,
        kind: str,
        holder: str,
        intruder: str,
        detail: str = "",
    ) -> None:
        self.resource = resource
        self.kind = kind  # "concurrent-write" | "foreign-buffer"
        self.holder = holder
        self.intruder = intruder
        self.detail = detail
        msg = (
            f"{kind} on {resource!r}: held by thread {holder!r}, "
            f"accessed by thread {intruder!r}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class Sanitizer:
    """Write-window and buffer-ownership tracker (see module docstring)."""

    def __init__(self) -> None:
        self._meta = threading.Lock()
        #: tag -> [thread ident, thread name, reentry depth]
        self._windows: dict[str, list] = {}
        self._versions: dict[str, int] = {}
        #: id(buffer) -> (tag, owner ident, owner name)
        self._owners: dict[int, tuple[str, int, str]] = {}

    # -- write windows -------------------------------------------------------
    def write_begin(self, tag: str) -> None:
        me = threading.current_thread()
        with self._meta:
            window = self._windows.get(tag)
            if window is None:
                self._windows[tag] = [me.ident, me.name, 1]
                return
            if window[0] == me.ident:
                window[2] += 1  # reentrant on the same thread
                return
            raise RaceReport(
                tag, "concurrent-write", holder=window[1], intruder=me.name
            )

    def write_end(self, tag: str) -> None:
        me = threading.current_thread()
        with self._meta:
            window = self._windows.get(tag)
            if window is None or window[0] != me.ident:
                return  # end without begin (or after a report) — tolerate
            window[2] -= 1
            if window[2] <= 0:
                del self._windows[tag]
                self._versions[tag] = self._versions.get(tag, 0) + 1

    def write_version(self, tag: str) -> int:
        """Completed write windows for ``tag``."""
        with self._meta:
            return self._versions.get(tag, 0)

    # -- buffer ownership ----------------------------------------------------
    def claim(self, buf: object, tag: str) -> None:
        """Record the current thread as the owner of a pooled buffer."""
        me = threading.current_thread()
        with self._meta:
            self._owners[id(buf)] = (tag, me.ident or 0, me.name)

    def release(self, buf: object) -> None:
        with self._meta:
            self._owners.pop(id(buf), None)

    def assert_owned(self, buf: object, context: str = "") -> None:
        """Raise :class:`RaceReport` if ``buf`` was claimed by another
        thread.  Unclaimed buffers pass (not every array is pooled)."""
        me = threading.current_thread()
        with self._meta:
            record = self._owners.get(id(buf))
        if record is not None and record[1] != me.ident:
            raise RaceReport(
                record[0],
                "foreign-buffer",
                holder=record[2],
                intruder=me.name,
                detail=context or "pooled buffer used off its owning thread",
            )


#: the armed sanitizer, or None — instrumented sites check this directly
_STATE: Sanitizer | None = None


def arm() -> Sanitizer:
    """Arm the sanitizer (idempotent); returns the active instance."""
    global _STATE
    if _STATE is None:
        _STATE = Sanitizer()
    return _STATE


def disarm() -> None:
    global _STATE
    _STATE = None


def armed() -> bool:
    return _STATE is not None


def state() -> Sanitizer | None:
    return _STATE


@contextmanager
def sanitized() -> Iterator[Sanitizer]:
    """Run a block under a fresh sanitizer, restoring the previous state."""
    global _STATE
    previous = _STATE
    _STATE = Sanitizer()
    try:
        yield _STATE
    finally:
        _STATE = previous


if os.environ.get("REPRO_SANITIZE", "").strip().lower() in ("1", "true", "yes"):
    _STATE = Sanitizer()
