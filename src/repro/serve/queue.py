"""Priority queue and per-job state machine of the serve runtime.

Jobs move through an explicit, validated state machine::

    QUEUED ----> RUNNING ----> DONE
       |          |  ^  \\---> FAILED
       |          |  |   \\--> CANCELLED
       |          v  |
       |      PREEMPTED ----> CANCELLED | FAILED (deadline)
       |__________________________________
        \\--> CANCELLED | FAILED (deadline) | DONE (cache hit / coalesce)

Ordering is (priority, deadline, arrival): lower ``priority`` values run
first; within a priority class jobs with deadlines run
earliest-deadline-first ahead of deadline-free jobs, which run FIFO.  A
preempted job re-enters the queue with a *new* sequence number, so equal-
priority jobs round-robin at slice granularity instead of one long run
starving the rest.

The queue is lock-guarded and its mutations are bracketed by reprosan
write windows (:mod:`repro.tools.sanitize`), so a multi-worker serve run
under ``REPRO_SANITIZE=1`` proves no two threads ever mutate the heap or
a job record concurrently.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.tools import sanitize as _sanitize

from .jobs import JobSpec

__all__ = ["Job", "JobQueue", "JobState", "JobStateError", "TRANSITIONS"]


class JobState(str, enum.Enum):
    """Lifecycle states of a served job."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    PREEMPTED = "PREEMPTED"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: the allowed state transitions (QUEUED -> DONE covers cache hits and
#: duplicate coalescing, which complete a job without ever running it;
#: QUEUED/PREEMPTED -> FAILED covers deadline expiry at dispatch time)
TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.PREEMPTED, JobState.CANCELLED}
    ),
    JobState.PREEMPTED: frozenset(
        {JobState.RUNNING, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


class JobStateError(RuntimeError):
    """An illegal state transition was attempted."""


@dataclass
class Job:
    """One tracked request: spec plus scheduling and lifecycle metadata.

    Timestamps are seconds on the owning server's monotonic clock
    (:class:`repro.obs.Stopwatch`); ``deadline`` is relative to
    submission and ``deadline_at`` the resolved absolute instant.
    """

    job_id: int
    spec: JobSpec
    priority: int = 0
    deadline: float | None = None
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    slices: int = 0
    iterations_done: int = 0
    checkpoint: str | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    cache_hit: bool = False
    coalesced_into: int | None = None
    cancel_requested: bool = False
    allocated_ranks: tuple[int, ...] = ()
    followers: list["Job"] = field(default_factory=list)

    @property
    def deadline_at(self) -> float | None:
        if self.deadline is None:
            return None
        return self.submitted_at + self.deadline

    @property
    def latency(self) -> float | None:
        """Submission-to-completion wall seconds (None while in flight)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def transition(self, new: JobState) -> None:
        """Move to ``new``, enforcing the transition table."""
        if new not in TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id} ({self.spec.kind}): illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        self.state = new


class JobQueue:
    """Thread-safe priority heap over :class:`Job` records.

    Entries are (priority, deadline-or-inf, seq) keyed; ``push`` assigns a
    fresh monotonically increasing ``seq``, which is what makes requeued
    preempted jobs take their turn *behind* equal-priority peers.
    Cancelled or already-started jobs left in the heap are skipped lazily
    on pop, so cancellation never needs a heap search.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._heap: list[tuple[int, float, int, Job]] = []
        self._seq = itertools.count()
        self._san_tag = f"JobQueue:{id(self)}"

    def __len__(self) -> int:
        with self._lock:
            return sum(
                1
                for _, _, _, job in self._heap
                if job.state in (JobState.QUEUED, JobState.PREEMPTED)
            )

    def push(self, job: Job) -> None:
        """Enqueue a QUEUED or PREEMPTED job."""
        if job.state not in (JobState.QUEUED, JobState.PREEMPTED):
            raise JobStateError(
                f"cannot enqueue job {job.job_id} in state {job.state.value}"
            )
        key_deadline = (
            job.deadline_at if job.deadline_at is not None else float("inf")
        )
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                heapq.heappush(
                    self._heap,
                    (job.priority, key_deadline, next(self._seq), job),
                )
            finally:
                if san is not None:
                    san.write_end(self._san_tag)

    def pop_dispatchable(self, free_ranks: int) -> Job | None:
        """Highest-priority queued job fitting in ``free_ranks`` (first fit).

        Jobs wider than the free budget are skipped (they stay queued and
        keep their position); stale entries — cancelled jobs, jobs already
        dispatched through a fresher entry — are dropped.  With no rank free
        nothing fits (a job needs one at least): the heap is left alone.
        """
        if free_ranks < 1:
            return None
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                skipped: list[tuple[int, float, int, Job]] = []
                found: Job | None = None
                while self._heap:
                    entry = heapq.heappop(self._heap)
                    job = entry[3]
                    if job.state not in (JobState.QUEUED, JobState.PREEMPTED):
                        continue  # stale: cancelled / coalesced / running
                    ranks = getattr(job.spec, "ranks", 1)
                    if ranks <= free_ranks:
                        found = job
                        break
                    skipped.append(entry)
                for entry in skipped:
                    heapq.heappush(self._heap, entry)
                return found
            finally:
                if san is not None:
                    san.write_end(self._san_tag)
