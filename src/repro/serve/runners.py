"""Job runners: one slice of work per call, driving the existing drivers.

Each registered job kind maps to a runner callable taking ``(spec, ctx)``
and returning a :class:`SliceOutcome` — either ``done`` with the final
JSON payload, or ``preempted`` with a resumable checkpoint path.  Runners
execute on the server's worker threads; everything they need travels in
the spec and the :class:`SliceContext`, and everything they produce is a
JSON-serializable payload (floats survive a JSON round trip bit for bit
via ``repr``, so cached results compare bitwise against fresh solves).

Slicing contract (``scf`` today): when the context carries a slice
budget, the runner caps the driver's iteration count at
``iterations_done + slice_iterations``, checkpoints every iteration, and
reports ``preempted`` if the run hit the cap without converging.  The next
slice resumes from the checkpoint — bit-for-bit identical to an unpreempted
run, which ``tests/test_serve.py`` verifies on the golden molecule library
spec.

A ``resume_from`` or ``seed_rho`` file that fails verification is the same
bytes on every attempt, so :func:`run_slice` turns the reader's
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

from .jobs import (
    BandsJobSpec,
    InvDFTJobSpec,
    JobSpec,
    MLXCTrainJobSpec,
    ProbeJobSpec,
    SCFJobSpec,
)

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
    #: warm-start hint: checkpoint path whose density seeds the first
    #: SCF iteration (scheduling metadata carried on the job, not the
    #: spec — cache keys stay seed-independent)
    seed_rho: str | None = None
    #: where runners persist converged-density artifacts for warm-start
    #: harvesting (from the scheduler policy; None = don't persist)
    artifact_dir: str | None = None


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

RUNNERS: dict[str, Runner] = {}


def _runner(kind: str) -> Callable[[Runner], Runner]:
    def deco(fn: Runner) -> Runner:
        RUNNERS[kind] = fn
        return fn

    return deco


def run_slice(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    """Execute one slice of ``spec`` (dispatch on the registered kind)."""
    try:
        runner = RUNNERS[spec.kind]
    except KeyError:
        raise ValueError(f"no runner registered for job kind {spec.kind!r}")
    try:
        return runner(spec, ctx)
    except ArtifactError as err:
        raise ResilienceError(f"serve:{spec.kind}", str(err)) from err


# ---------------------------------------------------------------------------
def _build_scf_calc(
    spec: SCFJobSpec | BandsJobSpec,
    max_iterations: int,
    checkpoint: str | None,
    backend: str = "serial",
    ranks: int = 1,
) -> Any:
    """DFTCalculation for a library-molecule spec (shared scf/bands)."""
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


@_runner("scf")
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


@_runner("bands")
def _run_bands(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    assert isinstance(spec, BandsJobSpec)
    from repro.core import band_structure, kpath

    calc = _build_scf_calc(
        spec, spec.max_scf, None,
        backend=ctx.backend, ranks=ctx.ranks,
    )
    with calc:
        res = calc.run()
    path = kpath(spec.k_start, spec.k_end, spec.n_kpoints)
    bands = band_structure(calc.mesh, res, path, nbands=spec.nbands)
    payload = _scf_payload(res)
    payload["kind"] = "bands"
    payload["kpath"] = [list(k) for k in path]
    payload["bands"] = [[float(e) for e in row] for row in bands]
    return SliceOutcome("done", payload=payload, iterations=res.n_iterations)


@_runner("invdft")
def _run_invdft(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    assert isinstance(spec, InvDFTJobSpec)
    from repro.invdft import InverseDFT
    from repro.pipeline import qmb_reference
    from repro.xc.lda import LDA

    ref = qmb_reference(
        spec.molecule, cells_per_axis=spec.cells, degree=spec.degree
    )
    mesh = ref.calc.mesh
    inv = InverseDFT(
        mesh,
        ref.calc.config,
        ref.rho_qmb_spin,
        nstates=max(ref.n_alpha, ref.n_beta) + 3,
        minres_tol=spec.minres_tol,
        minres_maxiter=spec.minres_maxiter,
    )
    v0, _ = LDA().potential_and_energy(mesh, ref.rho_qmb_spin)
    out = inv.run(
        v0, eta=spec.eta, max_iterations=spec.max_iterations, tol=1e-12
    )
    payload = {
        "kind": "invdft",
        "e_fci": float(ref.e_fci),
        "e_ks_seed": float(ref.e_ks_seed),
        "density_error": float(out.density_error),
        "iterations": int(out.iterations),
        "converged": bool(out.converged),
        "v_xc_sha256": _array_sha256(out.v_xc),
    }
    return SliceOutcome("done", payload=payload, iterations=out.iterations)


@_runner("mlxc")
def _run_mlxc(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    assert isinstance(spec, MLXCTrainJobSpec)
    from repro.ml.training import MLXCTrainer
    from repro.pipeline import build_training_set
    from repro.xc.mlxc import MLXC

    samples = build_training_set(
        tuple(spec.molecules),
        cells_per_axis=spec.cells,
        degree=spec.degree,
        invdft_iterations=spec.invdft_iterations,
    )
    functional = MLXC(seed=spec.seed)
    trainer = MLXCTrainer(samples, functional)
    history = trainer.train(epochs=spec.epochs, lr=spec.lr)
    payload = {
        "kind": "mlxc",
        "epochs": int(spec.epochs),
        "final_loss": float(history[-1]["total"]),
        "n_samples": len(samples),
        "theta_sha256": _array_sha256(functional.network.get_params()),
    }
    return SliceOutcome("done", payload=payload, iterations=spec.epochs)


@_runner("probe")
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
