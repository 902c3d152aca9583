"""Reusable buffer pools for the matrix-free hot path.

``KSOperator.apply`` and the Chebyshev recurrence around it are called
thousands of times per SCF with identical array shapes; allocating fresh
``(nnodes, B)`` / ``(ndof, B)`` temporaries on every call makes the Python
allocator (and the kernel's page-faulting) a measurable fraction of the
apply time.  A :class:`Workspace` hands out *named* buffers keyed by
``(tag, shape, dtype)`` so each call site gets the same memory back on the
next call.

Rules of use (also documented in DESIGN.md):

* A buffer named ``tag`` is exclusively owned by its call site between
  ``get`` and the end of the enclosing operation — two live buffers must
  use two tags.
* Pools are **thread-local**: the same :class:`Workspace` object can be
  shared by serve's concurrent slice workers; each thread sees its own
  buffers.
* ``Workspace(enabled=False)`` degrades every ``get`` to a fresh
  allocation — the A/B switch used by ``benchmarks/bench_apply.py``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.tools import sanitize as _sanitize

__all__ = ["UNPOOLED", "Workspace"]


class Workspace:
    """Thread-local pool of reusable ndarray buffers.

    Buffers are keyed by ``(tag, shape, dtype)``; a shape or dtype change
    under the same tag simply allocates a new buffer for the new key (the
    old one stays pooled for when the old shape returns — e.g. the ragged
    final block of a Chebyshev block sweep).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._local = threading.local()

    def _pool(self) -> dict:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = {}
            self._local.pool = pool
        return pool

    def get(
        self,
        tag: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
        zero: bool = False,
        zero_on_create: bool = False,
    ) -> np.ndarray:
        """Return a buffer of ``shape``/``dtype`` for ``tag``.

        Contents are arbitrary unless ``zero=True`` (memset every call) or
        ``zero_on_create=True`` (memset only when the buffer is freshly
        allocated — for buffers whose users maintain a "rows I don't touch
        stay zero" invariant, e.g. the free→full DoF expansion).  With the
        workspace disabled this is just ``np.empty`` / ``np.zeros``.
        """
        dt = np.dtype(dtype)
        if not self.enabled:
            return (
                np.zeros(shape, dtype=dt)
                if (zero or zero_on_create)
                else np.empty(shape, dtype=dt)
            )
        key = (tag, tuple(shape), dt)
        pool = self._pool()
        buf = pool.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dt)
            if zero_on_create:
                buf.fill(0)
            pool[key] = buf
        if zero:
            buf.fill(0)
        san = _sanitize._STATE
        if san is not None:
            san.claim(buf, tag)
        return buf

    def zeros(
        self,
        tag: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """``get`` with guaranteed-zero contents."""
        return self.get(tag, shape, dtype, zero=True)

    def nbytes(self) -> int:
        """Total bytes held by this thread's pool (introspection/tests)."""
        return sum(b.nbytes for b in self._pool().values())

    def clear(self) -> None:
        """Drop this thread's pooled buffers."""
        self._pool().clear()


#: the block source of a caller that brings no workspace: same code, fresh
#: arrays (a disabled pool holds no state, so one instance serves everyone)
UNPOOLED = Workspace(enabled=False)
