"""repro.serve — async simulation-as-a-service runtime.

The serving layer of the reproduction (ROADMAP item 1): requests
become *jobs* — serializable, content-addressed request specs — flowing
through a priority queue, a preemptive rank-packing scheduler and a
disk-backed result cache.  Two job kinds:

==========  ===========================================================
``scf``     ground-state SCF of a library molecule (sliceable)
``probe``   synthetic deterministic workload for load generation
==========  ===========================================================

* :mod:`repro.serve.jobs` — frozen spec dataclasses, canonical JSON,
  SHA-256 job keys;
* :mod:`repro.serve.queue` — the per-job state machine and the
  thread-safe priority heap (priority, earliest deadline, arrival);
* :mod:`repro.serve.scheduler` — rank budgets, time slices, deadline
  expiry;
* :mod:`repro.serve.cache` — self-verifying content-addressed results,
  atomic writes;
* :mod:`repro.serve.runners` — one slice of driver work per call,
  checkpointed at slice boundaries (preempted SCF resumes bit for bit);
* :mod:`repro.serve.server` — the asyncio front end and thread-pool
  workers, plus the synchronous :func:`run_jobs` facade;
* :mod:`repro.serve.loadgen` — deterministic request streams for the
  CLI and the benchmark ledger's ``serve_wave``.

CLI: ``python -m repro serve --jobs 100 --workers 4``.
"""

from .cache import CacheStats, ResultCache
from .jobs import (
    JOB_TYPES,
    JobSpec,
    ProbeJobSpec,
    SCFJobSpec,
    canonical_json,
    spec_from_dict,
)
from .loadgen import probe_load, scf_load
from .queue import Job, JobQueue, JobState, JobStateError
from .runners import RUNNERS, SliceContext, SliceOutcome, run_slice
from .scheduler import RankBudget, Scheduler, SchedulerPolicy
from .server import (
    ServeReport,
    ServeRequest,
    ServerStats,
    SimulationServer,
    run_jobs,
)

__all__ = [
    "JOB_TYPES",
    "RUNNERS",
    "CacheStats",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JobStateError",
    "ProbeJobSpec",
    "RankBudget",
    "ResultCache",
    "SCFJobSpec",
    "Scheduler",
    "SchedulerPolicy",
    "ServeReport",
    "ServeRequest",
    "ServerStats",
    "SimulationServer",
    "SliceContext",
    "SliceOutcome",
    "canonical_json",
    "probe_load",
    "run_jobs",
    "run_slice",
    "scf_load",
    "spec_from_dict",
]
