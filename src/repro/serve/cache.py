"""Content-addressed result cache: identical specs served in O(1).

Results are stored under the spec's SHA-256 job key
(:meth:`repro.serve.jobs.JobSpec.job_key`) as one JSON artifact per entry
(:func:`repro.atomicio.write_artifact`: atomic, schema-tagged,
digest-checked) holding the full serialized spec and the JSON payload the
runner produced.  Storing the *spec* (not just the payload) gives the cache
a check of its own on top of the envelope's: on read, the key recomputed
from the stored spec must equal the file's name, so a valid entry filed
under another spec's address is a miss instead of wrong physics.  Any entry
that fails either check counts as ``corrupt`` and misses.

A lock plus reprosan write windows guard the in-memory index, so concurrent
workers publishing results under ``REPRO_SANITIZE=1`` prove the locking
discipline.

Hit/miss/put tallies are kept on the cache and mirrored to the open
reproscope span (``cache_hits`` / ``cache_misses`` counters).
"""

from __future__ import annotations

import os
import pathlib
import threading
from dataclasses import dataclass
from typing import Any

from repro.atomicio import ArtifactError, read_artifact, write_artifact
from repro.obs.tracer import add_counter
from repro.tools import sanitize as _sanitize

from .jobs import JobSpec, spec_from_dict

__all__ = ["CacheStats", "ResultCache"]

#: schema tag of an on-disk cache entry
CACHE_SCHEMA = "repro-serve-cache/2"


@dataclass
class CacheStats:
    """Monotonic counters of one cache's traffic."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "puts": float(self.puts),
            "corrupt": float(self.corrupt),
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Disk-backed, memory-indexed content-addressed result store."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: dict[str, dict[str, Any]] = {}
        self._san_tag = f"ResultCache:{id(self)}"

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def get(self, spec: JobSpec) -> dict[str, Any] | None:
        """Payload for ``spec`` or None; counts a hit or a miss."""
        key = spec.job_key()
        with self._lock:
            entry = self._memory.get(key)
        if entry is None:
            entry = self._load(key)
        if entry is None:
            self.stats.misses += 1
            add_counter("cache_misses", 1)
            return None
        self.stats.hits += 1
        add_counter("cache_hits", 1)
        return dict(entry)

    def put(self, spec: JobSpec, payload: dict[str, Any]) -> pathlib.Path:
        """Publish ``payload`` under the spec's content address (atomic)."""
        key = spec.job_key()
        entry = {"spec": spec.to_dict(), "payload": payload}
        path = self._path(key)
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                write_artifact(path, CACHE_SCHEMA, entry)
                self._memory[key] = dict(payload)
                self.stats.puts += 1
            finally:
                if san is not None:
                    san.write_end(self._san_tag)
        return path

    def _load(self, key: str) -> dict[str, Any] | None:
        """Read + verify one disk entry; corrupt entries count and miss."""
        try:
            stored = read_artifact(self._path(key), CACHE_SCHEMA)
        except ArtifactError as err:
            if err.reason != "missing":
                self.stats.corrupt += 1
            return None
        try:
            # the content address: the stored spec must re-hash to the name
            # this entry is filed under
            addressed = spec_from_dict(stored["spec"]).job_key() == key
        except (ValueError, TypeError):
            addressed = False
        if not addressed:
            self.stats.corrupt += 1
            return None
        entry: dict[str, Any] = stored["payload"]
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                self._memory[key] = entry
            finally:
                if san is not None:
                    san.write_end(self._san_tag)
        return entry

    # ------------------------------------------------------------------
    def __contains__(self, spec: JobSpec) -> bool:
        key = spec.job_key()
        with self._lock:
            if key in self._memory:
                return True
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
