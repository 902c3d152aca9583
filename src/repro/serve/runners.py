"""Job runners: one slice of work per call, driving the existing drivers.

Each job kind maps (:data:`RUNNERS`) to a runner callable taking ``(spec, ctx)``
and returning a :class:`SliceOutcome` — either ``done`` with the final
JSON payload, or ``preempted`` with a resumable checkpoint path.  Runners
execute on the server's worker threads; everything they need travels in
the spec and the :class:`SliceContext`, and everything they produce is a
JSON-serializable payload (floats survive a JSON round trip bit for bit
via ``repr``, so cached results compare bitwise against fresh solves).

Slicing contract (``scf``): when the context carries a slice
budget, the runner caps the driver's iteration count at
``iterations_done + slice_iterations``, checkpoints every iteration, and
reports ``preempted`` if the run hit the cap without converging.  The next
slice resumes from the checkpoint — bit-for-bit identical to an unpreempted
run, which ``tests/test_serve.py`` verifies on the golden molecule library
spec.

A ``resume_from`` file that fails verification is the same bytes on every
attempt, so :func:`run_slice` turns the reader's
``ArtifactError`` into the structured ``ResilienceError`` the server's retry
policy lets through: one attempt, the path and the reason in ``job.error``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.atomicio import ArtifactError
from repro.resilience import ResilienceError

from .jobs import JobSpec, ProbeJobSpec, SCFJobSpec

__all__ = ["RUNNERS", "SliceContext", "SliceOutcome", "run_slice"]


@dataclass(frozen=True)
class SliceContext:
    """Per-slice execution inputs handed to a runner.

    ``slice_iterations`` is the scheduler's time-slice budget (None =
    run to completion); ``iterations_done`` and ``resume_from`` carry a
    preempted job's progress; ``checkpoint_path`` is where a sliceable
    runner must write its resumable state.  ``backend``/``ranks`` select
    the execution substrate for rank-aware runners (``serial`` — the
    golden reference — or a ``virtual``/``proc`` cluster of ``ranks``
    ranks); they come from the scheduler policy, not the job spec, so
    job identities (cache keys) are backend-independent.
    """

    slice_iterations: int | None = None
    iterations_done: int = 0
    resume_from: str | None = None
    checkpoint_path: str | None = None
    backend: str = "serial"
    ranks: int = 1


@dataclass(frozen=True)
class SliceOutcome:
    """What one slice produced."""

    status: str  #: "done" or "preempted"
    payload: dict[str, Any] | None = None
    checkpoint: str | None = None
    iterations: int = 0

    @property
    def done(self) -> bool:
        return self.status == "done"


Runner = Callable[[JobSpec, SliceContext], SliceOutcome]


def run_slice(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    """Execute one slice of ``spec`` (dispatch on its kind)."""
    try:
        runner = RUNNERS[spec.kind]
    except KeyError:
        raise ValueError(f"no runner for job kind {spec.kind!r}")
    try:
        return runner(spec, ctx)
    except ArtifactError as err:
        raise ResilienceError(f"serve:{spec.kind}", str(err)) from err


# ---------------------------------------------------------------------------
def _build_scf_calc(
    spec: SCFJobSpec,
    max_iterations: int,
    checkpoint: str | None,
    backend: str = "serial",
    ranks: int = 1,
) -> Any:
    """DFTCalculation for a library-molecule spec."""
    from repro.atoms.library import MOLECULE_LIBRARY
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions
    from repro.xc import LDA, PBE

    symbols, positions, *_ = MOLECULE_LIBRARY[spec.molecule]
    config = AtomicConfiguration(
        list(symbols), np.asarray(positions, dtype=float)
    )
    xc = {"lda": LDA, "pbe": PBE}[spec.xc]()
    options = SCFOptions(
        max_iterations=max_iterations,
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        checkpoint_metadata=spec.to_dict() if checkpoint else None,
        backend=backend,
        nranks=max(1, int(ranks)),
    )
    return DFTCalculation(
        config,
        xc=xc,
        degree=spec.degree,
        cells_per_axis=spec.cells,
        padding=spec.padding,
        options=options,
    )


def _scf_payload(res: Any) -> dict[str, Any]:
    from repro.core import homo_lumo_gap

    return {
        "kind": "scf",
        "energy": float(res.energy),
        "free_energy": float(res.free_energy),
        "fermi_level": float(res.fermi_level),
        "gap_ha": float(homo_lumo_gap(res)),
        "converged": bool(res.converged),
        "n_iterations": int(res.n_iterations),
    }


def _run_scf(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    assert isinstance(spec, SCFJobSpec)
    sliced = (
        ctx.slice_iterations is not None
        and ctx.checkpoint_path is not None
        and ctx.slice_iterations < spec.max_scf
    )
    if sliced:
        assert ctx.slice_iterations is not None
        cap = min(spec.max_scf, ctx.iterations_done + ctx.slice_iterations)
    else:
        cap = spec.max_scf
    calc = _build_scf_calc(
        spec, cap, ctx.checkpoint_path if sliced else None,
        backend=ctx.backend, ranks=ctx.ranks,
    )
    with calc:  # tears down proc-backend worker fleets on exit
        res = calc.run(resume_from=ctx.resume_from)
    if res.converged or cap >= spec.max_scf:
        payload = _scf_payload(res)
        payload["sliced"] = bool(sliced)
        return SliceOutcome(
            "done", payload=payload, iterations=int(res.n_iterations)
        )
    return SliceOutcome(
        "preempted",
        checkpoint=ctx.checkpoint_path,
        iterations=int(res.n_iterations),
    )


def _run_probe(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    assert isinstance(spec, ProbeJobSpec)
    rng = np.random.default_rng(spec.seed)
    a = rng.standard_normal((spec.size, spec.size))
    for _ in range(spec.iters):
        a = np.tanh(a @ a / spec.size)
    payload = {
        "kind": "probe",
        "checksum": _array_sha256(a),
        "trace": float(np.trace(a)),
    }
    return SliceOutcome("done", payload=payload, iterations=spec.iters)


def _array_sha256(a: "np.ndarray[Any, Any]") -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


#: the runner of each job kind
RUNNERS: dict[str, Runner] = {"scf": _run_scf, "probe": _run_probe}
