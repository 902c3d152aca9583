"""Persisted artifacts: the one atomic writer, the one verifying reader.

How a file is written, tagged, verified and refused is decided here and
nowhere else (DESIGN.md §18 has the format and the reasons):

* :func:`atomic_write` — temp file beside the target, flush, ``fsync``,
  ``os.replace``: a reader finds the previous complete file or the new one;
* :func:`write_artifact` / :func:`read_artifact` — a *tree* (nested dicts and
  lists of numpy arrays, Python scalars incl. ``inf``, strings, ``None``)
  under a schema tag and a SHA-256 digest.  Arrays are members of one
  compressed npz, every other leaf sits in one canonical-JSON header member;
  a tree without arrays is the header alone, as readable JSON text;
* :class:`ArtifactError` — the one refusal: the path plus one of
  :data:`REASONS`.

Imports nothing from ``repro``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager
from typing import IO, Any, Iterator

import numpy as np

__all__ = [
    "REASONS", "ArtifactError", "atomic_write", "read_artifact", "write_artifact",
]

#: why a file is refused.  The first five are decided here; ``wrong kind`` and
#: ``foreign mesh`` by :mod:`repro.core.io`, which knows what a state file is
REASONS = (
    "missing", "unreadable", "truncated", "digest mismatch", "wrong schema",
    "wrong kind", "foreign mesh",
)

#: the header key that marks "an array member goes here" (value: member name)
_ARRAY = "__ndarray__"

#: what numpy / zipfile / zlib / json raise on a container they cannot decode
_DECODE_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, OSError, ValueError, LookupError,
    TypeError, AttributeError, RuntimeError,
)


class ArtifactError(ValueError):
    """A persisted artifact was refused; ``reason`` is one of :data:`REASONS`."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        reason: str,
        detail: str = "",
        expected: str | None = None,
        found: str | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.reason = reason
        self.expected = expected  #: the schema tag the reader asked for
        self.found = found  #: the schema tag the file carries, when it has one
        super().__init__(f"{self.path}: {reason}" + (f" ({detail})" if detail else ""))


@contextmanager
def atomic_write(
    path: str | os.PathLike[str], mode: str = "wb", encoding: str | None = None
) -> Iterator[IO[Any]]:
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


def _split(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    """The JSON-able skeleton of ``node``; array leaves move into ``arrays``."""
    if isinstance(node, np.ndarray):
        if node.dtype.hasobject:
            raise TypeError("object arrays cannot be persisted (no pickle)")
        name = f"a{len(arrays)}"
        arrays[name] = node
        return {_ARRAY: name}
    if isinstance(node, dict):
        if _ARRAY in node or not all(isinstance(k, str) for k in node):
            raise TypeError(f"artifact dict keys must be strings other than {_ARRAY!r}")
        return {k: _split(v, arrays) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_split(v, arrays) for v in node]
    # numpy scalars persist as the Python scalars they hold; anything json
    # cannot encode fails in _canonical, before a file is opened
    return node.item() if isinstance(node, np.generic) else node


def _join(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`_split`."""
    if isinstance(node, dict):
        if _ARRAY in node:
            return arrays[node[_ARRAY]]
        return {k: _join(v, arrays) for k, v in node.items()}
    if isinstance(node, list):
        return [_join(v, arrays) for v in node]
    return node


def _canonical(header: dict[str, Any]) -> bytes:
    """Canonical JSON: sorted keys, no whitespace, ASCII.  Floats are written
    by ``repr`` (``inf`` as ``Infinity``), so parse -> re-encode is the identity
    and the digest can be recomputed from a parsed header."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")


def _digest(header: dict[str, Any], arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the canonical header (schema + skeleton) and, in name
    order, every array's name, dtype, shape and C-order bytes."""
    h = hashlib.sha256(_canonical(header))
    for name in sorted(arrays):
        a = arrays[name]
        h.update(f"|{name}|{a.dtype.str}|{a.shape}|".encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


def write_artifact(path: str | os.PathLike[str], schema: str, tree: Any) -> None:
    """Atomically persist ``tree`` at ``path`` under ``schema``."""
    arrays: dict[str, np.ndarray] = {}
    header = {"schema": schema, "tree": _split(tree, arrays)}
    header["digest"] = _digest(header, arrays)
    if arrays:
        with atomic_write(path) as f:
            np.savez_compressed(
                f, header=np.frombuffer(_canonical(header), dtype=np.uint8), **arrays
            )
    else:
        with atomic_write(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True, indent=1) + "\n")


def read_artifact(path: str | os.PathLike[str], schema: str) -> Any:
    """The tree stored at ``path``; :class:`ArtifactError` unless the file is
    present, decodes, carries ``schema`` and matches its digest."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise ArtifactError(path, "missing", expected=schema) from None
    except OSError as err:
        raise ArtifactError(path, "unreadable", str(err), expected=schema) from err
    arrays: dict[str, np.ndarray] = {}
    zipped = raw[:2] == b"PK"
    text = raw  # the JSON: the whole file, or an npz's header member
    try:
        if zipped:
            with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
            # an npz from elsewhere has no header: it carries no schema at all
            text = arrays.pop("header").tobytes() if "header" in arrays else b"{}"
        header = json.loads(text)
        found, digest = header.get("schema"), header.pop("digest", None)
    except _DECODE_ERRORS as err:
        # cut short: nothing at all, a zip without its end-of-directory
        # record, or JSON text that opens an object and never closes it
        truncated = (
            not raw
            or (zipped and not zipfile.is_zipfile(io.BytesIO(raw)))
            or (raw[:1] == b"{" and not raw.rstrip().endswith(b"}"))
        )
        raise ArtifactError(
            path, "truncated" if truncated else "unreadable",
            f"{type(err).__name__}: {err}", expected=schema,
        ) from err
    if found != schema:
        raise ArtifactError(
            path, "wrong schema", f"found {found!r}, expected {schema!r}",
            expected=schema, found=found,
        )
    if "tree" not in header or digest != _digest(header, arrays):
        raise ArtifactError(path, "digest mismatch", expected=schema, found=found)
    return _join(header["tree"], arrays)
