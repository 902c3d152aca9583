"""Graceful degradation: the ladder a faulting run descends, with a report.

A faulting step is retried in place (:class:`~repro.resilience.retry.
RetryPolicy`); when the budget runs out the driver gives up with a
structured ``ResilienceError``.  A fallback that trades performance for
survival between those two rungs is recorded in a
:class:`DegradationReport` — attached to the ``SCFResult`` and printed by
the CLI — so a run that survived on degraded paths says so instead of
silently running slow.  No SCF path records one at present, so the report
is empty on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import add_counter, add_event

__all__ = ["DegradationEvent", "DegradationReport"]


@dataclass(frozen=True)
class DegradationEvent:
    """One rung taken on the degradation ladder."""

    site: str  #: fault site that forced the fallback
    action: str  #: what the run fell back to, e.g. "fast->reference"
    detail: str = ""
    iteration: int | None = None  #: outer-loop iteration, when known


@dataclass
class DegradationReport:
    """Ordered record of every fallback a run took."""

    events: list[DegradationEvent] = field(default_factory=list)

    def record(
        self,
        site: str,
        action: str,
        detail: str = "",
        iteration: int | None = None,
    ) -> DegradationEvent:
        ev = DegradationEvent(site, action, detail, iteration)
        self.events.append(ev)
        add_counter("degradations", 1)
        add_event("degraded", site=site, action=action)
        return ev

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def as_dicts(self) -> list[dict]:
        return [
            {
                "site": e.site,
                "action": e.action,
                "detail": e.detail,
                "iteration": e.iteration,
            }
            for e in self.events
        ]

    def summary(self) -> str:
        if not self.events:
            return "no degradation: run completed on the fast paths"
        lines = ["degradation report:"]
        for e in self.events:
            at = f" (iteration {e.iteration})" if e.iteration is not None else ""
            det = f": {e.detail}" if e.detail else ""
            lines.append(f"  [{e.site}] {e.action}{at}{det}")
        return "\n".join(lines)

