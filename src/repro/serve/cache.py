"""Content-addressed result cache: identical specs served in O(1).

Results are stored under the spec's SHA-256 job key
(:meth:`repro.serve.jobs.JobSpec.job_key`) as one JSON file per entry —
an envelope carrying the schema tag, the full serialized spec, and the
JSON payload the runner produced.  Storing the *spec* (not just the
payload) makes every entry self-verifying: on read, the key recomputed
from the stored spec must equal the file's name, so a corrupted or
hand-edited entry is treated as a miss instead of serving wrong physics
(the same checksum discipline as the PR 1 model-artifact guard).

Writes are atomic (:func:`repro.atomicio.atomic_write`): a crash mid-write
leaves either the old entry or the new one, never a torn file.  A lock plus
reprosan write windows guard the in-memory index, so concurrent workers
publishing results under ``REPRO_SANITIZE=1`` prove the locking discipline.

Hit/miss/put tallies are kept on the cache and mirrored to the open
reproscope span (``cache_hits`` / ``cache_misses`` counters).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from dataclasses import dataclass
from typing import Any

from repro.atomicio import atomic_write
from repro.obs.tracer import add_counter
from repro.tools import sanitize as _sanitize

from .jobs import JobSpec, spec_from_dict

__all__ = ["CacheStats", "ResultCache"]

#: schema tag of the on-disk cache entry envelope
CACHE_SCHEMA = "repro-serve-cache/1"


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
        envelope = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": spec.to_dict(),
            "payload": payload,
        }
        path = self._path(key)
        blob = json.dumps(envelope, sort_keys=True, indent=1)
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                with atomic_write(path, "w", encoding="utf-8") as f:
                    f.write(blob)
                self._memory[key] = dict(payload)
                self.stats.puts += 1
            finally:
                if san is not None:
                    san.write_end(self._san_tag)
        return path

    def _load(self, key: str) -> dict[str, Any] | None:
        """Read + verify one disk entry; corrupt entries count and miss."""
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError:
            self.stats.corrupt += 1
            return None
        if not self._verify(key, envelope):
            self.stats.corrupt += 1
            return None
        entry: dict[str, Any] = envelope["payload"]
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

    @staticmethod
    def _verify(key: str, envelope: Any) -> bool:
        """Entry is well-formed and its stored spec re-hashes to ``key``."""
        if not isinstance(envelope, dict):
            return False
        if envelope.get("schema") != CACHE_SCHEMA:
            return False
        if not isinstance(envelope.get("payload"), dict):
            return False
        try:
            spec = spec_from_dict(envelope.get("spec", {}))
        except (ValueError, TypeError):
            return False
        return spec.job_key() == key

    # ------------------------------------------------------------------
    def __contains__(self, spec: JobSpec) -> bool:
        key = spec.job_key()
        with self._lock:
            if key in self._memory:
                return True
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
