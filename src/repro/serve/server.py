"""The simulation server: asyncio front end over threaded slice workers.

:class:`SimulationServer` accepts job specs on an asyncio event loop,
answers repeats from the content-addressed :class:`~repro.serve.cache.
ResultCache` without touching a solver, coalesces duplicate in-flight
specs onto one primary job, and dispatches everything else through the
preemptive :class:`~repro.serve.scheduler.Scheduler` onto a
``ThreadPoolExecutor`` whose threads drive the SCF driver (or the
synthetic probe) one slice at a time.

Threading discipline (what a ``REPRO_SANITIZE=1`` run proves):

* all ``Job`` mutation, queue pushes and rank accounting happen on the
  event-loop thread — worker threads only *execute* a slice from a
  frozen spec plus an immutable :class:`~repro.serve.runners.
  SliceContext`, and publish results into the lock-guarded cache;
* dispatch is event-driven — ``_pump()`` runs after every submit and
  every slice completion, so there is no polling loop and an idle
  server burns nothing.

Failures are routed through :mod:`repro.resilience`: every slice attempt
runs under the server's :class:`~repro.resilience.RetryPolicy`, and only
the structured :class:`~repro.resilience.ResilienceError` it emits on
exhaustion marks a job ``FAILED`` (reprolint R011: no broad excepts
outside the resilience boundary).
"""

from __future__ import annotations

import asyncio
import itertools
import pathlib
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs import Stopwatch, add_counter, add_event
from repro.resilience import ResilienceError, RetryPolicy

from .cache import CacheStats, ResultCache
from .jobs import JobSpec
from .queue import Job, JobState
from .runners import SliceOutcome, run_slice
from .scheduler import Scheduler, SchedulerPolicy

__all__ = [
    "ServeReport",
    "ServeRequest",
    "ServerStats",
    "SimulationServer",
    "run_jobs",
]


@dataclass(frozen=True)
class ServeRequest:
    """One submission: a spec plus its scheduling attributes."""

    spec: JobSpec
    priority: int = 0
    deadline: float | None = None


@dataclass
class ServerStats:
    """Aggregate traffic counters of one server lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    preemptions: int = 0
    slices: int = 0
    max_queue_depth: int = 0
    latencies: list[float] = field(default_factory=list)

    def latency_percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (0.0 with no completions)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    def as_dict(self) -> dict[str, float]:
        return {
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "failed": float(self.failed),
            "cancelled": float(self.cancelled),
            "cache_hits": float(self.cache_hits),
            "coalesced": float(self.coalesced),
            "preemptions": float(self.preemptions),
            "slices": float(self.slices),
            "max_queue_depth": float(self.max_queue_depth),
            "latency_p50_s": self.latency_percentile(0.50),
            "latency_p99_s": self.latency_percentile(0.99),
        }


@dataclass(frozen=True)
class ServeReport:
    """What :func:`run_jobs` hands back to synchronous callers."""

    jobs: tuple[Job, ...]
    stats: ServerStats
    cache_stats: CacheStats
    wall_seconds: float


class SimulationServer:
    """Priority-scheduled, cache-fronted simulation service (asyncio API).

    Use as an async context manager, or call :meth:`shutdown` yourself::

        async with SimulationServer(workdir=tmp) as server:
            job = await server.submit(SCFJobSpec(molecule="H2"))
            await server.wait(job)
    """

    def __init__(
        self,
        workdir: str | pathlib.Path | None = None,
        *,
        policy: SchedulerPolicy | None = None,
        workers: int = 4,
        retry_policy: RetryPolicy | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        if workdir is None and cache is None:
            self._tmpdir: tempfile.TemporaryDirectory[str] | None = (
                tempfile.TemporaryDirectory(prefix="repro-serve-")
            )
            workdir = self._tmpdir.name
        else:
            self._tmpdir = None
        assert workdir is not None
        root = pathlib.Path(workdir)
        self.policy = policy if policy is not None else SchedulerPolicy()
        self.scheduler = Scheduler(self.policy, root / "checkpoints")
        self.cache = cache if cache is not None else ResultCache(root / "cache")
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.stats = ServerStats()
        self.clock = Stopwatch()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._job_ids = itertools.count(1)
        self._jobs: dict[int, Job] = {}
        self._events: dict[int, asyncio.Event] = {}
        #: spec key -> primary in-flight job (the coalescing table)
        self._inflight: dict[str, Job] = {}
        self._tasks: set[asyncio.Task[None]] = set()
        self._closed = False

    async def __aenter__(self) -> "SimulationServer":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.shutdown()

    # -- submission ----------------------------------------------------------
    async def submit(
        self,
        spec: JobSpec,
        *,
        priority: int = 0,
        deadline: float | None = None,
    ) -> Job:
        """Validate, cache-check, coalesce or enqueue one request.

        Returns the tracked :class:`Job` immediately; await
        :meth:`wait` for its terminal state.  A cache hit completes the
        job here, without ever invoking a solver.
        """
        if self._closed:
            raise RuntimeError("server is shut down")
        spec.validate()
        job = Job(
            job_id=next(self._job_ids),
            spec=spec,
            priority=priority,
            deadline=deadline,
            submitted_at=self._now(),
        )
        self._jobs[job.job_id] = job
        self._events[job.job_id] = asyncio.Event()
        self.stats.submitted += 1

        cached = self.cache.get(spec)
        if cached is not None:
            job.result = cached
            job.cache_hit = True
            self.stats.cache_hits += 1
            self._finalize(job, JobState.DONE)
            return job

        key = spec.job_key()
        primary = self._inflight.get(key)
        if primary is not None and not primary.state.terminal:
            job.coalesced_into = primary.job_id
            primary.followers.append(job)
            self.stats.coalesced += 1
            add_counter("coalesced_jobs", 1)
            return job

        self._inflight[key] = job
        self.scheduler.submit(job)
        depth = len(self.scheduler.queue)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        self._pump()
        # yield one loop turn so slice completions interleave with a
        # submission burst (later duplicates can then hit the cache
        # instead of all coalescing onto the in-flight primary)
        await asyncio.sleep(0)
        return job

    async def submit_many(
        self, requests: Iterable[ServeRequest]
    ) -> list[Job]:
        return [
            await self.submit(r.spec, priority=r.priority, deadline=r.deadline)
            for r in requests
        ]

    # -- completion ----------------------------------------------------------
    async def wait(self, job: Job) -> Job:
        """Block until ``job`` reaches a terminal state; returns it."""
        event = self._events[job.job_id]
        await event.wait()
        return job

    async def drain(self) -> None:
        """Wait for every submitted job to reach a terminal state."""
        for event in list(self._events.values()):
            await event.wait()

    def cancel(self, job: Job) -> bool:
        """Request cancellation.  Queued/preempted jobs cancel here;
        a running sliceable job cancels at its next slice boundary.
        Terminal jobs and running non-sliceable jobs (which run their
        one slice to completion) return False."""
        if job.state in (JobState.QUEUED, JobState.PREEMPTED):
            self._finalize(job, JobState.CANCELLED)
            return True
        if job.state is JobState.RUNNING and job.spec.sliceable:
            job.cancel_requested = True
            return True
        return False

    async def shutdown(self) -> None:
        """Drain outstanding jobs and stop the worker pool."""
        if not self._closed:
            await self.drain()
            self._closed = True
            self._executor.shutdown(wait=True)
            if self._tmpdir is not None:
                self._tmpdir.cleanup()

    # -- internals (event-loop thread only) -----------------------------------
    def _now(self) -> float:
        return self.clock.elapsed()

    def _pump(self) -> None:
        """Dispatch every queued job that currently fits the rank budget."""
        while True:
            job = self.scheduler.next_dispatch(self._now())
            if job is None:
                return
            if job.state is JobState.FAILED:  # deadline expired in queue
                self._finalize(job, None)
                continue
            task = asyncio.get_running_loop().create_task(self._drive(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _drive(self, job: Job) -> None:
        """Run one slice of ``job`` on a worker thread, then route it."""
        ctx = self.scheduler.slice_context(job)
        loop = asyncio.get_running_loop()
        outcome, error = await loop.run_in_executor(
            self._executor, self._execute_slice, job.spec, ctx
        )
        self.scheduler.release(job)
        job.slices += 1
        self.stats.slices += 1
        if error is not None:
            job.error = error
            self._finalize(job, JobState.FAILED)
        elif outcome is not None and outcome.done:
            job.result = outcome.payload
            job.iterations_done = outcome.iterations
            self._finalize(job, JobState.DONE)
        elif job.cancel_requested:
            self._finalize(job, JobState.CANCELLED)
        else:
            assert outcome is not None
            job.transition(JobState.PREEMPTED)
            self.stats.preemptions += 1
            add_counter("preemptions", 1)
            self.scheduler.requeue_preempted(
                job, outcome.checkpoint, outcome.iterations
            )
        self._pump()

    def _execute_slice(
        self, spec: JobSpec, ctx: Any
    ) -> tuple[SliceOutcome | None, str | None]:
        """Worker-thread body: run one slice under the retry policy.

        Reads only the frozen spec and context; a finished payload is
        published into the lock-guarded cache from this thread.  Returns
        ``(outcome, None)`` or ``(None, error)`` — the structured
        :class:`ResilienceError` is the only failure that crosses back.
        """
        try:
            outcome: SliceOutcome = self.retry_policy.run(
                lambda: run_slice(spec, ctx),
                site=f"serve:{spec.kind}",
            )
        except ResilienceError as exc:
            return None, str(exc)
        if outcome.done and outcome.payload is not None:
            self.cache.put(spec, outcome.payload)
        return outcome, None

    def _finalize(self, job: Job, state: JobState | None) -> None:
        """Set the terminal state, settle followers, wake waiters."""
        if state is not None:
            job.transition(state)
        if job.finished_at is None:
            job.finished_at = self._now()
        if job.state is JobState.DONE:
            self.stats.completed += 1
            latency = job.latency
            if latency is not None:
                self.stats.latencies.append(latency)
        elif job.state is JobState.FAILED:
            self.stats.failed += 1
            add_event("job_failed", job_id=job.job_id, error=job.error or "")
        else:
            self.stats.cancelled += 1
        self._inflight.pop(job.spec.job_key(), None)
        for follower in job.followers:
            if follower.state.terminal:
                continue
            follower.result = (
                dict(job.result) if job.result is not None else None
            )
            follower.error = job.error
            follower.transition(job.state)
            follower.finished_at = self._now()
            if follower.state is JobState.DONE:
                self.stats.completed += 1
                latency = follower.latency
                if latency is not None:
                    self.stats.latencies.append(latency)
            elif follower.state is JobState.FAILED:
                self.stats.failed += 1
            else:
                self.stats.cancelled += 1
            self._events[follower.job_id].set()
        self._events[job.job_id].set()


# ---------------------------------------------------------------------------
def run_jobs(
    requests: Sequence[ServeRequest],
    *,
    workdir: str | pathlib.Path | None = None,
    policy: SchedulerPolicy | None = None,
    workers: int = 4,
    retry_policy: RetryPolicy | None = None,
    cache: ResultCache | None = None,
) -> ServeReport:
    """Synchronous facade: serve ``requests`` to completion and report.

    This is what the CLI and the benchmark drive — one event loop,
    submit everything, drain, shut down, and hand back the jobs (in
    submission order) plus the server and cache statistics.
    """

    async def _main() -> ServeReport:
        server = SimulationServer(
            workdir,
            policy=policy,
            workers=workers,
            retry_policy=retry_policy,
            cache=cache,
        )
        watch = Stopwatch()
        async with server:
            jobs = await server.submit_many(requests)
            await server.drain()
            wall = watch.elapsed()
        return ServeReport(
            jobs=tuple(jobs),
            stats=server.stats,
            cache_stats=server.cache.stats,
            wall_seconds=wall,
        )

    return asyncio.run(_main())
