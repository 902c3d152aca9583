"""reprochaos fault injection: deterministic, seeded faults at named sites.

The paper's headline runs occupy thousands of nodes for hours — a regime
where transient kernel failures, dropped messages and slow ranks are the
norm, not the exception.  This module lets the reproduction *rehearse* that
regime deterministically: a :class:`FaultPlan` names a fault **site** (a
registered point in the numerical pipeline), the **invocation** index at
which it fires, a **kind**, and how many consecutive invocations it poisons.

Registered sites (see :data:`FAULT_SITES`):

==============  =============================================================
``ks_apply``    end of ``KSOperator.apply`` (every engine, eager or begin/finish)
``filter_block``  output of one Chebyshev filter block
``halo``        the owner-sum halo exchange in ``VirtualCluster``
``channel``     entry of a per-(k, spin) ChFES channel solve
``minres``      a Krylov step inside the block-MINRES adjoint solve
==============  =============================================================

Kinds: ``nan`` / ``inf`` poison one deterministic element of the array
passing through the site; ``raise`` throws :class:`InjectedFault` (a crashed
worker); ``drop`` models a lost halo message (the protocol retransmits);
``slow`` sleeps, modeling a straggler rank.

Arming follows the ``REPRO_TRACE`` pattern exactly: a module-global
``_PLAN`` is ``None`` unless a plan is armed (programmatically via
:func:`arm` / :func:`chaos`, or from ``REPRO_FAULTS`` at import), and every
call site guards on it first — an unarmed run pays one attribute load per
site visit, nothing else, and is bit-identical to a build without the hooks.

``REPRO_FAULTS`` grammar: comma-separated ``site:iter[:kind[:count]]``,
e.g. ``REPRO_FAULTS="filter_block:3:nan"`` or ``"halo:2:drop:4,channel:5"``
(kind defaults to the site's first supported kind, count to 1).
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.obs import add_counter

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResilienceError",
    "active_plan",
    "arm",
    "armed",
    "chaos",
    "disarm",
    "fault_point",
]

#: site -> kinds it supports (array-poisoning kinds need an array to flow
#: through the site; ``channel`` marks a control-flow point, so only
#: exception/straggler faults make sense there)
FAULT_SITES: dict[str, tuple[str, ...]] = {
    "ks_apply": ("nan", "inf", "raise", "slow"),
    "filter_block": ("nan", "inf", "raise"),
    "halo": ("drop", "nan", "inf", "raise", "slow"),
    "channel": ("raise", "slow"),
    "minres": ("nan", "inf", "raise"),
}

KINDS = ("nan", "inf", "drop", "raise", "slow")


class InjectedFault(RuntimeError):
    """A fault fired by an armed :class:`FaultPlan` (simulated crash)."""

    def __init__(self, site: str, invocation: int, kind: str = "raise") -> None:
        self.site = site
        self.invocation = invocation
        self.kind = kind
        super().__init__(
            f"injected {kind!r} fault at site {site!r} "
            f"(invocation {invocation})"
        )


class ResilienceError(RuntimeError):
    """Structured failure after recovery is exhausted.

    Raised *instead of* letting a NaN energy or an anonymous worker
    exception escape: it names the fault ``site`` and the recovery effort
    spent, so a failed long campaign reports *where* it died.
    """

    def __init__(self, site: str, reason: str, attempts: int = 0) -> None:
        self.site = site
        self.reason = reason
        self.attempts = attempts
        tail = f" (after {attempts} attempts)" if attempts else ""
        super().__init__(f"[{site}] {reason}{tail}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire ``kind`` at ``site`` on ``count`` consecutive
    invocations starting at the ``invocation``-th (1-based)."""

    site: str
    invocation: int
    kind: str = ""
    count: int = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"registered sites: {', '.join(sorted(FAULT_SITES))}"
            )
        kind = self.kind or FAULT_SITES[self.site][0]
        object.__setattr__(self, "kind", kind)
        if kind not in FAULT_SITES[self.site]:
            raise ValueError(
                f"site {self.site!r} does not support kind {kind!r} "
                f"(supported: {', '.join(FAULT_SITES[self.site])})"
            )
        if self.invocation < 1 or self.count < 1:
            raise ValueError("invocation and count must be >= 1")

    def covers(self, invocation: int) -> bool:
        return self.invocation <= invocation < self.invocation + self.count


@dataclass
class FaultPlan:
    """A deterministic, seeded set of :class:`FaultSpec` to fire.

    Thread-safe: the per-site invocation counters are lock-guarded, so
    serve's concurrent slice workers count deterministically *per site*
    (a spec keyed on a site shared by concurrent workers fires on whichever
    worker draws the matching invocation — pin specs to serially-visited
    sites, or run one worker, for fully reproducible chaos runs).
    """

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0
    slow_seconds: float = 0.005  #: straggler stall per ``slow`` fault
    fired: list[tuple[str, int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan | None":
        """Build a plan from the ``REPRO_FAULTS`` grammar (None if empty)."""
        text = (text or "").strip()
        if not text:
            return None
        specs = []
        for item in text.split(","):
            parts = item.strip().split(":")
            if not 2 <= len(parts) <= 4:
                raise ValueError(
                    f"bad fault spec {item!r}; expected site:iter[:kind[:count]]"
                )
            site = parts[0].strip()
            invocation = int(parts[1])
            kind = parts[2].strip() if len(parts) > 2 else ""
            count = int(parts[3]) if len(parts) > 3 else 1
            specs.append(FaultSpec(site, invocation, kind, count))
        return cls(specs=specs)

    # ------------------------------------------------------------------
    def note(self, site: str) -> tuple[str, int] | None:
        """Count one invocation of ``site``; return (kind, invocation) if a
        spec fires, else None."""
        with self._lock:
            inv = self._counts.get(site, 0) + 1
            self._counts[site] = inv
            for sp in self.specs:
                if sp.site == site and sp.covers(inv):
                    self.fired.append((site, inv, sp.kind))
                    return sp.kind, inv
        return None

    def invocations(self, site: str) -> int:
        with self._lock:
            return self._counts.get(site, 0)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self.fired.clear()


# ---------------------------------------------------------------------------
# Global arming (the REPRO_TRACE pattern): call sites read _PLAN first.
# ---------------------------------------------------------------------------
_PLAN: FaultPlan | None = None


def arm(plan: FaultPlan | None) -> FaultPlan | None:
    """Arm ``plan`` globally; returns the previously armed plan (or None)."""
    global _PLAN
    prev = _PLAN
    _PLAN = plan
    return prev


def disarm() -> FaultPlan | None:
    """Disarm fault injection; returns the plan that was armed."""
    return arm(None)


def active_plan() -> FaultPlan | None:
    return _PLAN


def armed() -> bool:
    return _PLAN is not None


@contextmanager
def chaos(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a ``with`` block (restores the
    previous plan on exit, exception-safe)."""
    prev = arm(plan)
    try:
        yield plan
    finally:
        arm(prev)


def _poison(array: np.ndarray, kind: str, seed: int, site: str, inv: int) -> None:
    """Deterministically corrupt one element of ``array`` in place."""
    flat = array.reshape(-1)
    if flat.size == 0:
        return
    mix = (seed * 1_000_003 + inv * 7919 + zlib.crc32(site.encode())) % 2**32
    idx = int(np.random.default_rng(mix).integers(flat.size))
    flat[idx] = np.nan if kind == "nan" else np.inf


def fault_point(site: str, array: np.ndarray | None = None) -> str | None:
    """The fault hook every registered site calls.

    Returns ``None`` when nothing fires, otherwise the fired kind (callers
    that implement protocol-level recovery — the halo exchange — inspect
    it).  ``nan``/``inf`` poison ``array`` in place; ``raise`` throws
    :class:`InjectedFault`; ``slow`` stalls for the plan's
    ``slow_seconds``.  Hot paths should guard the call on
    ``faults._PLAN is not None`` (one attribute load) for zero unarmed
    overhead.
    """
    plan = _PLAN
    if plan is None:
        return None
    hit = plan.note(site)
    if hit is None:
        return None
    kind, inv = hit
    add_counter("faults_injected", 1)
    if kind == "raise":
        raise InjectedFault(site, inv)
    if kind == "slow":
        time.sleep(plan.slow_seconds)
        return kind
    if kind in ("nan", "inf"):
        if array is None:
            # nothing to poison at this call: surface as a crash instead
            raise InjectedFault(site, inv, kind)
        _poison(array, kind, plan.seed, site, inv)
        return kind
    return kind  # "drop": the caller's protocol handles retransmission


# arm from the environment at import (mirrors REPRO_TRACE)
_PLAN = FaultPlan.parse(os.environ.get("REPRO_FAULTS", ""))
