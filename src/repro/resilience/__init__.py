"""reprochaos — fault injection, recovery and degradation for long runs.

The resilience subsystem of this repository, threaded through the three
long-running loops (SCF, inverse DFT, MLXC training):

* :mod:`repro.resilience.faults` — deterministic, seeded fault injection at
  named sites (``REPRO_FAULTS="site:iter[:kind[:count]]"`` or a
  programmatic :class:`FaultPlan`); zero-overhead no-ops unarmed.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`: bounded retries
  with a deterministic backoff schedule, recorded as reproscope events and
  counters, converting exhausted recovery into a structured
  :class:`ResilienceError` that names the failing site.
* :mod:`repro.resilience.degrade` — the degradation ladder and the
  :class:`DegradationReport` attached to results.

Mid-run checkpoint/resume — the third leg of the robustness story — lives
with the other persistence code in :mod:`repro.core.io` and the
``resume_from=`` parameters of ``SCFDriver.run`` / ``InverseDFT.run`` /
``MLXCTrainer.train``; ``python -m repro resume`` drives it from the CLI.

Quick chaos run::

    from repro.resilience import FaultPlan, FaultSpec, chaos

    with chaos(FaultPlan([FaultSpec("filter_block", 3, "nan")])):
        result = calc.run()   # recovers via retry, or raises
                              # ResilienceError("[filter_block] ...")
"""

from .degrade import DegradationEvent, DegradationReport
from .faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceError,
    active_plan,
    arm,
    armed,
    chaos,
    disarm,
    fault_point,
)
from .retry import RetryPolicy

__all__ = [
    "FAULT_SITES",
    "DegradationEvent",
    "DegradationReport",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResilienceError",
    "RetryPolicy",
    "active_plan",
    "arm",
    "armed",
    "chaos",
    "disarm",
    "fault_point",
]
