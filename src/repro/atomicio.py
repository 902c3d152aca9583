"""The one atomic file writer (stdlib only, imports nothing from ``repro``).

Checkpoints, cache entries, tuned profiles and weight archives must never
be seen half-written: a reader finds either the previous complete file or
the new complete file.  :func:`atomic_write` is the single place that
sequence lives — temp file in the destination directory, flush, ``fsync``,
``os.replace`` — so every persistent artifact gets the same guarantee.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import IO, Iterator

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(
    path: str | os.PathLike, mode: str = "wb", encoding: str | None = None
) -> Iterator[IO]:
    """Open a temp file that replaces ``path`` only if the block succeeds.

    The file object is yielded for writing (``mode`` ``"wb"`` or ``"w"``).
    On a clean exit it is flushed, fsynced and moved over ``path`` with
    ``os.replace``; if the block raises — or the process dies — ``path``
    keeps its previous content byte for byte and the temp file is removed.
    The temp file lives next to ``path`` so the replace never crosses a
    filesystem.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as f:
            yield f
            f.flush()
            # looked up on the module at call time: the benchmark ledger
            # disarms os.fsync in its child processes
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
