"""Preemptive scheduler: rank packing, time slices, deadlines.

The scheduler owns the admission decisions of the serve runtime:

* **Rank packing** — jobs declare how many virtual-cluster ranks they
  occupy (``spec.ranks``); the :class:`RankBudget` hands out explicit
  rank-id sets from a fixed pool and a job is dispatched only when its
  ranks fit, first-fit in queue order.  Narrow jobs may overtake a wide
  job that does not currently fit; the wide job keeps its queue position.

* **Time slicing** — with ``slice_iterations`` set, sliceable jobs
  (``scf``) run at most that many driver iterations per dispatch,
  checkpoint at the boundary and re-enter the queue as
  ``PREEMPTED`` with a fresh sequence number, so equal-priority jobs
  round-robin at slice granularity.  The resumed trajectory is
  bit-for-bit the uninterrupted one — preemption is free of numerical
  cost by construction.

* **Deadlines** — a job whose deadline has passed when it surfaces for
  dispatch is failed (``deadline expired``) without occupying ranks;
  within a priority class, jobs with deadlines run
  earliest-deadline-first ahead of deadline-free jobs.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from .queue import Job, JobQueue, JobState
from .runners import SliceContext

__all__ = ["RankBudget", "Scheduler", "SchedulerPolicy"]


@dataclass(frozen=True)
class SchedulerPolicy:
    """Tunable scheduling knobs (frozen: policy is fixed per server)."""

    total_ranks: int = 8
    #: driver iterations per slice for sliceable kinds (None = no slicing)
    slice_iterations: int | None = None
    #: execution substrate for rank-aware runners: "serial" (golden
    #: reference), "virtual" (metered in-process ranks) or "proc"
    #: (real shared-memory rank processes).  Policy-level, not part of
    #: job specs, so cache keys stay backend-independent.
    backend: str = "serial"

    def __post_init__(self) -> None:
        if self.total_ranks < 1:
            raise ValueError("total_ranks must be >= 1")
        if self.slice_iterations is not None and self.slice_iterations < 1:
            raise ValueError("slice_iterations must be >= 1 (or None)")
        if self.backend not in ("serial", "virtual", "proc"):
            raise ValueError(f"unknown backend {self.backend!r}")


class RankBudget:
    """Explicit rank-id allocator over a fixed pool of virtual ranks."""

    def __init__(self, total: int) -> None:
        if total < 1:
            raise ValueError("a rank budget needs at least one rank")
        self.total = int(total)
        self._free: set[int] = set(range(self.total))

    @property
    def free(self) -> int:
        return len(self._free)

    @property
    def used(self) -> int:
        return self.total - len(self._free)

    def allocate(self, n: int) -> tuple[int, ...] | None:
        """Claim ``n`` rank ids (lowest-first), or None if they don't fit."""
        if n < 1:
            raise ValueError("cannot allocate fewer than 1 rank")
        if n > len(self._free):
            return None
        taken = tuple(sorted(self._free)[:n])
        self._free.difference_update(taken)
        return taken

    def release(self, ranks: tuple[int, ...]) -> None:
        """Return previously allocated rank ids to the pool."""
        for r in ranks:
            if r in self._free or not (0 <= r < self.total):
                raise ValueError(f"rank {r} was not allocated from this budget")
        self._free.update(ranks)


class Scheduler:
    """Queue + rank budget + slicing policy -> dispatch decisions."""

    def __init__(
        self,
        policy: SchedulerPolicy,
        checkpoint_dir: str | pathlib.Path,
    ) -> None:
        self.policy = policy
        self.queue = JobQueue()
        self.budget = RankBudget(policy.total_ranks)
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        self.queue.push(job)

    def next_dispatch(self, now: float) -> Job | None:
        """Next dispatch decision, with any needed ranks allocated.

        Returns None when nothing is dispatchable.  Otherwise the
        returned job is either ``RUNNING`` (ranks allocated — run a
        slice) or ``FAILED`` with ``error = "deadline expired ..."``
        (its deadline passed while queued; no ranks were claimed and the
        caller must finalize it).
        """
        job = self.queue.pop_dispatchable(self.budget.free)
        if job is None:
            return None
        deadline_at = job.deadline_at
        if deadline_at is not None and now > deadline_at:
            job.transition(JobState.FAILED)
            job.error = (
                f"deadline expired {now - deadline_at:.3f}s before dispatch"
            )
            job.finished_at = now
            return job
        ranks = self.budget.allocate(getattr(job.spec, "ranks", 1))
        if ranks is None:  # raced against a concurrent dispatch
            self.queue.push(job)
            return None
        job.allocated_ranks = ranks
        job.transition(JobState.RUNNING)
        job.started_at = job.started_at if job.started_at is not None else now
        return job

    def slice_context(self, job: Job) -> SliceContext:
        """Execution context for the job's next slice."""
        sliceable = (
            job.spec.sliceable and self.policy.slice_iterations is not None
        )
        checkpoint = (
            str(self.checkpoint_dir / f"job-{job.job_id}.ckpt")
            if sliceable
            else None
        )
        return SliceContext(
            slice_iterations=self.policy.slice_iterations if sliceable else None,
            iterations_done=job.iterations_done,
            resume_from=job.checkpoint,
            checkpoint_path=checkpoint,
            backend=self.policy.backend,
            ranks=max(1, int(getattr(job.spec, "ranks", 1))),
        )

    def release(self, job: Job) -> None:
        """Return the job's ranks to the pool (idempotent per dispatch)."""
        if job.allocated_ranks:
            self.budget.release(job.allocated_ranks)
            job.allocated_ranks = ()

    def requeue_preempted(self, job: Job, checkpoint: str | None, iterations: int) -> None:
        """Record a slice boundary and put the job back in line."""
        job.checkpoint = checkpoint
        job.iterations_done = iterations
        self.queue.push(job)
