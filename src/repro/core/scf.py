"""Self-consistent field driver (the ground-state loop of DFT-FE-MLXC).

Each SCF iteration performs the sequence the paper benchmarks in Table 3:

1. **EP** — electrostatic potential solve for ``rho - rho_core``;
2. **DH** — effective-potential (Hamiltonian) update, incl. XC evaluation;
3. **ChFES** — one Chebyshev-filtered subspace iteration per (k, spin)
   channel: CF -> CholGS (S, CI, O) -> RR (P, D, SR);
4. occupation update (Fermi-Dirac, common chemical potential);
5. **DC** — density computation;
6. Anderson-mixed density update, Harris-Foulkes energy estimate.

A fully periodic cell preconditions the density residual with Kerker
(:mod:`repro.core.kerker`) and mixes at twice the Anderson step of a cell
with a Dirichlet axis: Kerker damps the long-wavelength charge sloshing that
caps the step on a metal.  The final energy is the Kohn-Sham functional at
the output density, its double-counting term taken with the potential of the
Hamiltonian that produced the eigenvalues (:mod:`repro.core.energy`).

The first SCF step runs several filtering passes from a random subspace
(paper footnote 8) on the first channel of each spin.  A later k-point of
that spin starts warm instead: its first step filters once, from the
previous k-point's Ritz vectors carried over by the Bloch phase plus a
little of the random block.  The filter's upper bound is closed-form, no
Lanczos.

Every phase of the iteration is wrapped in a reproscope span
(:mod:`repro.obs`) named after the paper's kernel labels, so a traced run
produces the nested per-SCF breakdown of Table 3; the per-iteration
``history`` seconds are read off the same ``SCF-iteration`` span, keeping
the history and the trace in agreement by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.fem.assembly import KSOperator
from repro.fem.mesh import Mesh3D
from repro.obs import SCF_ITERATION, trace_region
from repro.resilience import ResilienceError, RetryPolicy
from repro.resilience import faults as _faults
from repro.tools import sanitize as _sanitize
from repro.xc.base import XCFunctional

from .chebyshev import capped_degree, chebyshev_filter, lanczos_upper_bound
from .density import atomic_guess_density, density_from_channels
from .energy import EnergyBreakdown, total_energy
from .hamiltonian import Electrostatics
from .io import load_initial_rho, load_scf_state, save_scf_state
from .kerker import KERKER_K0, KerkerPreconditioner
from .mixing import ALPHA_DIRICHLET, ALPHA_PERIODIC, AndersonMixer
from .occupations import OccupationSet, find_fermi_level
from .subspace import (
    adjust_carried_hx,
    cholesky_orthonormalize,
    fused_cholgs_rr,
    rayleigh_ritz,
)

# rayleigh_ritz and lanczos_upper_bound are re-exports with no use left here:
# the benchmark ledger's frozen hook table resolves both on repro.core.scf and
# fails loudly if a name disappears
__all__ = [
    "KSChannel", "SCFOptions", "SCFResult", "SCFDriver", "chfes_step",
    "rayleigh_ritz", "lanczos_upper_bound",
]

#: Chebyshev filter degree; ``capped_degree`` lowers it per Ritz-window pass
CHEB_DEGREE = 15
#: filtering passes from the random start in the first SCF step of the first
#: channel of each spin; a later k-point's first step is a warm one
N_INIT_PASSES = 5
#: column weight of the random start mixed into a later k-point's Bloch-lifted
#: start: a symmetry sector the earlier k-point's states leave empty would
#: otherwise stay empty under the filter
LIFT_NOISE = 0.3
#: Anderson mixing history window
MIXING_HISTORY = 6
# KERKER_K0 (imported above) is read here at call time too: a test turns the
# periodic cell's Kerker preconditioning off with monkeypatch.setattr(
# repro.core.scf, "KERKER_K0", None)


# chfes_step lives here, not in a module of its own, because the benchmark
# ledger times the kernels by the names this module looks them up under
def chfes_step(
    op, X: np.ndarray | None, evals: np.ndarray | None, hx0: np.ndarray | None,
    *, b: float, degree: int, passes: int, block_size: int,
    nstates: int | None = None, seed: int = 0, mixed_precision: bool = False,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``passes`` ChFES iterations (Algorithm 1: CF -> CholGS -> RR) on ``op``.

    ``X is None`` starts from ``nstates`` orthonormalised random columns
    drawn from ``seed``, filtered through a crude window that amplifies the
    lower third of ``[min diag(H), b]`` at the full ``degree``.  Otherwise
    ``X`` and ``evals`` are the previous Ritz pairs and the window runs from
    them to the upper bound ``b``, the degree lowered by
    :func:`capped_degree`.  ``hx0`` is ``H X`` for the first filter pass, or
    None; every later pass reuses the HX rotated out of the last fused
    CholGS -> RR stage.  Returns the Ritz values, vectors and their HX.
    """
    if X is None:
        X = _random_start(op, nstates, seed, block_size)
        evals = None
    for _ in range(passes):
        if evals is None:
            a0 = float(np.min(op.diagonal())) - 1.0
            a, m = a0 + 0.35 * (b - a0), degree
        else:
            a0 = float(evals[0])
            a = float(evals[-1]) + 0.01 * (b - float(evals[-1]))
            m = capped_degree(degree, a, b, a0, X.dtype)
        X = chebyshev_filter(
            op, X, m, a, b, a0, block_size=block_size, ledger=ledger, hx0=hx0
        )
        # fused CholGS->RR: one H application of the filtered block feeds
        # the projection AND the next pass's HX
        evals, X, hx0 = fused_cholgs_rr(
            X, op.apply(X), op=op, block_size=block_size,
            mixed_precision=mixed_precision, ledger=ledger,
        )
    return evals, X, hx0


def _random_start(op, nstates: int, seed: int, block_size: int) -> np.ndarray:
    """``nstates`` orthonormalised random columns of ``op``'s dtype from
    ``seed``: the cold start of :func:`chfes_step`."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((op.n, nstates))
    if np.issubdtype(op.dtype, np.complexfloating):
        X = X + 1j * rng.standard_normal((op.n, nstates))
    return cholesky_orthonormalize(
        np.asarray(X, dtype=op.dtype), block_size=block_size
    )


def _bloch_lift(mesh: Mesh3D, psi: np.ndarray, kfrom, kto, dtype) -> np.ndarray:
    """Free-node Bloch functions at ``kfrom`` carried to ``kto``, as ``dtype``.

    Each node is multiplied by ``exp(2 pi i (kto - kfrom) . x / L)``, ``x``
    measured from the cell origin: the smooth phase turns the twisted
    boundary condition of ``kfrom`` into that of ``kto`` and commutes with
    the diagonal Löwdin scaling.
    """
    dk = np.subtract(kto, kfrom, dtype=float)
    if not dk.any():
        return psi.astype(dtype)
    x = mesh.node_coords[mesh.free] / mesh.lengths
    return np.exp(2j * np.pi * (x @ dk))[:, None] * psi


def _carried(default=None):
    """A ``KSChannel`` field one SCF iteration hands to the next: rewound when
    a faulted eigensolve is retried, written to every checkpoint, restored on
    resume — all three iterate :data:`CARRIED_FIELDS`."""
    return field(default=default, metadata={"carried": True})


@dataclass
class KSChannel:
    """One (k-point, spin) eigenvalue channel."""

    kfrac: tuple[float, float, float]
    weight: float
    spin: int | None  #: 0/1 for spin-polarized, None for spin-restricted
    op: KSOperator
    psi: np.ndarray | None = _carried()  #: (ndof, nstates) Löwdin-basis orbitals
    evals: np.ndarray | None = _carried()
    #: HX carry of the fused subspace stage: ``H psi`` rotated out of the
    #: last Rayleigh-Ritz, and the potential it was computed at (the next
    #: filter adjusts it by ``diag(v_new - v_old)`` and skips one apply)
    hpsi: np.ndarray | None = _carried()
    hpsi_v: np.ndarray | None = _carried()

    def carried(self) -> dict:
        """The loop-carried fields, by reference."""
        return {name: getattr(self, name) for name in CARRIED_FIELDS}

    def restore(self, carried: dict) -> None:
        for name in CARRIED_FIELDS:
            setattr(self, name, carried[name])


#: the one declaration of what a channel carries across SCF iterations
CARRIED_FIELDS = tuple(f.name for f in fields(KSChannel) if f.metadata.get("carried"))


@dataclass
class SCFOptions:
    """Numerical knobs of the SCF loop and the ChFES eigensolver."""

    max_iterations: int = 60
    density_tol: float = 1e-6  #: L2 density residual per electron
    energy_tol: float = 1e-8  #: Harris energy change per electron (Ha)
    temperature: float = 1e-3  #: k_B T smearing (Ha)
    #: filtering passes in every later SCF step.  The default single
    #: pass leaves the converged subspace with an O(1e-10) eigenvalue
    #: memory of the starting density; screening campaigns that must
    #: reproduce cold-start energies to 1e-12 from seeded densities run 2-3
    #: passes so the eigensolve is trajectory-independent at the fixed
    #: point.  1 is bitwise-identical to the historical behavior.
    filter_passes: int = 1
    block_size: int = 64  #: CF / CholGS / RR block size (the paper's B_f)
    mixed_precision: bool = False
    #: Anderson mixing step; None derives it from the cell: ALPHA_PERIODIC
    #: on a fully periodic one (Kerker-preconditioned), ALPHA_DIRICHLET on
    #: one with a Dirichlet axis
    mixing_alpha: float | None = None
    poisson_tol: float = 1e-9  #: verified bound on the EP residual |b-Kx|/|b|
    verbose: bool = False
    #: mid-run checkpointing: write the loop state here every
    #: ``checkpoint_every`` iterations (and on convergence); resume with
    #: ``SCFDriver.run(resume_from=...)``
    checkpoint_path: str | None = None
    checkpoint_every: int = 1
    #: free-form dict stored in the checkpoint (the CLI uses it to rebuild
    #: the calculation for ``python -m repro resume``)
    checkpoint_metadata: dict | None = None
    #: seed the first SCF iteration from the density stored in this file
    #: (a ``save_checkpoint`` result or a mid-run ``scf`` state;
    #: mesh-validated at load).  An explicit ``run(rho0=...)`` argument
    #: takes precedence.
    initial_rho_path: str | None = None
    #: recovery budget for faulted channel eigensolves (see
    #: :mod:`repro.resilience`)
    retry_policy: RetryPolicy = RetryPolicy()
    #: rank backend for the Hamiltonian applies: "serial" (the in-process
    #: KSOperator), "virtual" (simulated ranks, metered traffic), or
    #: "proc" (real forked ranks over shared memory).  The distributed
    #: backends are bitwise-identical to each other; "serial" remains the
    #: default and the golden-value reference.
    backend: str = "serial"
    #: rank count for the distributed backends
    nranks: int = 2


@dataclass
class SCFResult:
    """Converged (or best-effort) ground state."""

    converged: bool
    n_iterations: int
    energy: float  #: self-consistent Kohn-Sham total energy (Ha)
    free_energy: float  #: Mermin free energy (Ha)
    fermi_level: float
    eigenvalues: list[np.ndarray]
    occupations: list[np.ndarray]
    channels: list[KSChannel]
    rho_spin: np.ndarray  #: (nnodes, 2)
    v_tot: np.ndarray
    v_xc_spin: np.ndarray
    breakdown: EnergyBreakdown
    history: list[dict] = field(default_factory=list)

    @property
    def rho(self) -> np.ndarray:
        return self.rho_spin.sum(axis=1)


@dataclass
class _LoopState:
    """What the SCF loop carries across an iteration boundary.

    ``SCFDriver.run`` builds it fresh or from a file, ``_scf_loop`` advances
    it in place, and a checkpoint is this object — together with every
    channel's carried fields and the FLOP ledger, which live on the driver.
    """

    rho_spin: np.ndarray
    mixer: AndersonMixer  #: owns the history window
    iteration: int = 0
    converged: bool = False
    free_energy: float = np.inf  #: the previous iteration's (energy test)
    occset: OccupationSet | None = None
    #: (nnodes, 2) effective potential of the last Hamiltonian: the final
    #: energy's double counting pairs it with that Hamiltonian's eigenvalues
    v_eff: np.ndarray | None = None
    history: list[dict] = field(default_factory=list)


class SCFDriver:
    """Kohn-Sham SCF on a spectral-element mesh."""

    def __init__(
        self,
        mesh: Mesh3D,
        config: AtomicConfiguration,
        xc: XCFunctional,
        nstates: int,
        kpoints: list[tuple[tuple[float, float, float], float]] | None = None,
        spin_polarized: bool = False,
        options: SCFOptions | None = None,
        ledger=None,
        nonlocal_projectors=None,
    ) -> None:
        self.mesh = mesh
        self.config = config
        self.xc = xc
        self.nstates = int(nstates)
        self.spin_polarized = bool(spin_polarized)
        self.options = options or SCFOptions()
        self.ledger = ledger
        if kpoints is None:
            kpoints = [((0.0, 0.0, 0.0), 1.0)]
        wsum = sum(w for _, w in kpoints)
        if abs(wsum - 1.0) > 1e-10:
            raise ValueError("k-point weights must sum to 1")
        self.electrostatics = Electrostatics(mesh, config, ledger=ledger)
        self.channels: list[KSChannel] = []
        ops: dict[tuple, KSOperator] = {}
        spins = (0, 1) if spin_polarized else (None,)
        backend = self.options.backend
        for kfrac, w in kpoints:
            key = tuple(np.round(kfrac, 12))
            if key not in ops:
                common = dict(
                    kfrac=kfrac, ledger=ledger,
                    nonlocal_projectors=nonlocal_projectors,
                )
                if backend == "serial":
                    ops[key] = KSOperator(mesh, **common)
                else:
                    from repro.hpc.distributed import DistributedKSOperator

                    ops[key] = DistributedKSOperator(
                        mesh, self.options.nranks, backend=backend, **common
                    )
            for i, s in enumerate(spins):
                # every channel owns its operator (its potential); clones
                # share the heavy immutable state of the base op
                op = ops[key] if i == 0 else ops[key].clone()
                self.channels.append(
                    KSChannel(kfrac=tuple(kfrac), weight=w, spin=s, op=op)
                )
        min_states = int(np.ceil(config.n_electrons / (2.0 if not spin_polarized else 1.0)))
        if self.nstates < min_states:
            raise ValueError(
                f"nstates={nstates} cannot hold {config.n_electrons} electrons"
            )

    def close(self) -> None:
        """Release operator backend resources (process-rank worker fleets).

        Idempotent; serial and virtual backends have nothing to release.
        Distributed clones share one cluster, whose close is itself
        idempotent, so closing every channel is safe.
        """
        for ch in self.channels:
            ch.op.close()

    def __enter__(self) -> "SCFDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        rho0: np.ndarray | None = None,
        initial_polarization: float = 0.0,
        resume_from: str | None = None,
    ) -> SCFResult:
        opts = self.options
        mesh = self.mesh
        periodic = all(mesh.pbc)
        alpha = opts.mixing_alpha
        if alpha is None:
            alpha = ALPHA_PERIODIC if periodic else ALPHA_DIRICHLET
        mixer = AndersonMixer(alpha, MIXING_HISTORY)
        kerker = None
        if periodic and KERKER_K0 is not None:
            kerker = KerkerPreconditioner(mesh, k0=KERKER_K0)
        if resume_from is not None:
            state = self._restore_state(load_scf_state(resume_from, mesh), mixer)
        else:
            if rho0 is None and opts.initial_rho_path is not None:
                rho0 = load_initial_rho(opts.initial_rho_path, mesh)
            state = _LoopState(
                rho0.copy()
                if rho0 is not None
                else atomic_guess_density(mesh, self.config, initial_polarization),
                mixer,
            )
        self._scf_loop(state, kerker)
        rho_spin, occset = state.rho_spin, state.occset

        # Final energy: the Kohn-Sham functional at the output density, its
        # double counting taken with the potential the eigenvalues came from
        v_tot = self.electrostatics.solve(rho_spin.sum(axis=1), tol=opts.poisson_tol)
        v_xc, exc = self.xc.potential_and_energy(mesh, rho_spin)
        breakdown = total_energy(
            mesh,
            [ch.evals for ch in self.channels],
            occset.occupations,
            [ch.weight for ch in self.channels],
            rho_spin,
            state.v_eff,
            v_tot,
            self.electrostatics.core_density,
            self.electrostatics.self_energy,
            exc,
            occset.entropy,
            opts.temperature,
        )
        if not np.isfinite(breakdown.free_energy):
            raise ResilienceError(
                "scf", "non-finite free energy in the final evaluation"
            )
        return SCFResult(
            converged=state.converged,
            n_iterations=state.iteration,
            energy=breakdown.total,
            free_energy=breakdown.free_energy,
            fermi_level=occset.fermi_level,
            eigenvalues=[ch.evals for ch in self.channels],
            occupations=occset.occupations,
            channels=self.channels,
            rho_spin=rho_spin,
            v_tot=v_tot,
            v_xc_spin=v_xc,
            breakdown=breakdown,
            history=state.history,
        )

    def _restore_state(self, saved: dict, mixer) -> _LoopState:
        """The loop state a checkpoint holds; the channels' carried fields
        and the FLOP ledger are restored on the driver."""
        if len(saved["channels"]) != len(self.channels):
            raise ValueError(
                "checkpoint channel count does not match this calculation "
                f"({len(saved['channels'])} vs {len(self.channels)})"
            )
        for ch, st in zip(self.channels, saved["channels"]):
            if st["spin"] != ch.spin or not np.allclose(st["kfrac"], ch.kfrac):
                raise ValueError(
                    "checkpoint (k, spin) channel layout does not match "
                    "this calculation"
                )
            ch.restore(st)
        mixer.set_history(saved["mixer_rho"], saved["mixer_res"])
        if self.ledger is not None and saved["ledger_snapshot"]:
            self.ledger.restore(saved["ledger_snapshot"])
        return _LoopState(
            rho_spin=saved["rho_spin"],
            mixer=mixer,
            iteration=saved["iteration"],
            converged=saved["converged"],
            free_energy=saved["free_energy"],
            occset=OccupationSet(
                occupations=saved["occupations"],
                fermi_level=saved["fermi_level"],
                entropy=saved["entropy"],
            ),
            v_eff=saved["v_eff"],
            history=saved["history"],
        )

    def _write_checkpoint(self, state: _LoopState) -> None:
        mixer_rho, mixer_res = state.mixer.get_history()
        save_scf_state(
            self.options.checkpoint_path,
            self.mesh,
            iteration=state.iteration,
            converged=state.converged,
            free_energy=state.free_energy,
            rho_spin=state.rho_spin,
            fermi_level=state.occset.fermi_level,
            entropy=state.occset.entropy,
            occupations=state.occset.occupations,
            v_eff=state.v_eff,
            channels=[
                {"kfrac": ch.kfrac, "weight": ch.weight, "spin": ch.spin,
                 **ch.carried()}
                for ch in self.channels
            ],
            mixer_rho=mixer_rho,
            mixer_res=mixer_res,
            ledger_snapshot=(
                self.ledger.snapshot() if self.ledger is not None else None
            ),
            history=state.history,
            # free-form; the CLI stores what `python -m repro resume` needs
            metadata=self.options.checkpoint_metadata or {},
        )

    def _scf_loop(
        self, state: _LoopState, kerker: KerkerPreconditioner | None
    ) -> None:
        """Advance ``state`` to convergence or ``max_iterations``, the
        residual Kerker-preconditioned before mixing when ``kerker`` is set."""
        opts = self.options
        mesh = self.mesh
        n_e = self.config.n_electrons
        degeneracy = 1.0 if self.spin_polarized else 2.0
        if state.converged:  # resumed from a converged checkpoint: nothing to do
            return
        for it in range(state.iteration + 1, opts.max_iterations + 1):
            state.iteration = it
            rho_spin = state.rho_spin
            with trace_region(SCF_ITERATION, iteration=it) as it_span:
                # EP span opened by Electrostatics.solve itself
                v_tot = self.electrostatics.solve(
                    rho_spin.sum(axis=1), tol=opts.poisson_tol
                )
                with trace_region("DH"):
                    v_xc, exc = self.xc.potential_and_energy(mesh, rho_spin)
                    v_eff = state.v_eff = v_tot[:, None] + v_xc  # (nnodes, 2)

                self._solve_channels(v_eff)

                with trace_region("Occ"):
                    occset = state.occset = find_fermi_level(
                        [ch.evals for ch in self.channels],
                        [ch.weight for ch in self.channels],
                        n_e,
                        opts.temperature,
                        degeneracy=degeneracy,
                    )
                # DC span opened by density_from_channels itself
                rho_out = density_from_channels(
                    mesh, self.channels, occset.occupations, ledger=self.ledger
                )
                with trace_region("Energy"):
                    breakdown = total_energy(
                        mesh,
                        [ch.evals for ch in self.channels],
                        occset.occupations,
                        [ch.weight for ch in self.channels],
                        rho_spin,
                        v_eff,
                        v_tot,
                        self.electrostatics.core_density,
                        self.electrostatics.self_energy,
                        exc,
                        occset.entropy,
                        opts.temperature,
                    )
                dr = rho_out - rho_spin
                residual = float(
                    np.sqrt(mesh.integrate(np.einsum("is,is->i", dr, dr)))
                ) / n_e
                # resilience sentinel: a poison that slipped past recovery
                # dies here as a structured error, never as a NaN energy
                if not (np.isfinite(breakdown.free_energy) and np.isfinite(residual)):
                    raise ResilienceError(
                        "scf",
                        f"non-finite free energy or density residual "
                        f"at iteration {it}",
                    )
                d_energy = abs(breakdown.free_energy - state.free_energy) / n_e
                state.free_energy = breakdown.free_energy
                if opts.verbose:  # pragma: no cover - logging
                    print(
                        f"SCF {it:3d}  F = {breakdown.free_energy:+.10f} Ha  "
                        f"res = {residual:.3e}  mu = {occset.fermi_level:+.6f}"
                    )
                if residual < opts.density_tol and d_energy < opts.energy_tol and it > 1:
                    state.converged = True
                    state.rho_spin = rho_out
                else:
                    with trace_region("Mix"):
                        if kerker is not None:
                            rho_out = rho_spin + kerker(rho_out - rho_spin)
                        state.rho_spin = state.mixer.mix(rho_spin, rho_out)
                        np.clip(state.rho_spin, 0.0, None, out=state.rho_spin)
            # seconds come from the just-closed span: the trace and the
            # printed/recorded history cannot drift apart
            state.history.append(
                {
                    "iteration": it,
                    "free_energy": breakdown.free_energy,
                    "residual": residual,
                    "fermi_level": occset.fermi_level,
                    "seconds": it_span.duration,
                }
            )
            if opts.checkpoint_path is not None and (
                state.converged or it % max(opts.checkpoint_every, 1) == 0
            ):
                self._write_checkpoint(state)
            if state.converged:
                break

    # ------------------------------------------------------------------
    def _solve_channels(self, v_eff: np.ndarray) -> None:
        """One ChFES step per (k, spin) channel, in channel order; a
        channel whose retries run out raises ``ResilienceError``."""
        for ch in self.channels:
            self._solve_channel_resilient(ch, v_eff)

    def _solve_channel_resilient(self, ch: KSChannel, v_eff: np.ndarray) -> None:
        """One channel solve under the retry policy.

        The eigensolver only ever *reassigns* ``psi``/``evals`` (it never
        writes into the previous arrays), so restoring the pre-attempt
        references is enough to rewind a failed attempt.  The full-orbital
        finiteness scan runs only while a fault plan is armed — unfaulted
        runs pay a single O(nstates) eigenvalue check per channel.
        """
        policy = self.options.retry_policy
        backup = ch.carried()

        def validate(_: None) -> bool:
            if ch.evals is None or not np.all(np.isfinite(ch.evals)):
                return False
            if _faults._PLAN is not None and ch.psi is not None:
                if not np.all(np.isfinite(ch.psi)):
                    return False
            if _faults._PLAN is not None and ch.hpsi is not None:
                if not np.all(np.isfinite(ch.hpsi)):
                    return False
            return True

        def before_retry(n: int) -> None:
            ch.restore(backup)

        policy.run(
            lambda: self._solve_one_channel(ch, v_eff), "channel",
            validate=validate, before_retry=before_retry,
        )

    def _solve_one_channel(self, ch: KSChannel, v_eff: np.ndarray) -> None:
        if _faults._PLAN is not None:
            _faults.fault_point("channel")
        # each channel is single-owner state: under reprosan the write window
        # raises if any other thread writes the channel during its solve
        san = _sanitize._STATE
        if san is not None:
            san.write_begin(f"KSChannel:{id(ch)}")
        try:
            s = ch.spin if ch.spin is not None else 0
            ch.op.set_potential(v_eff[:, s])
            self._eigensolve(ch)
        finally:
            if san is not None:
                san.write_end(f"KSChannel:{id(ch)}")

    def _warm_neighbour(self, ch: KSChannel) -> KSChannel | None:
        """The channel whose Ritz pairs seed ``ch``'s first SCF step: the
        nearest earlier channel of its spin, if that one has solved and its
        orbitals cast to ``ch``'s dtype (Gamma -> k, never complex -> real).
        Channels solve in order, so on a first step that is this step."""
        i = next(j for j, c in enumerate(self.channels) if c is ch)
        for prev in reversed(self.channels[:i]):
            if prev.spin == ch.spin:
                if prev.psi is not None and np.can_cast(prev.psi.dtype, ch.op.dtype):
                    return prev
                return None
        return None

    def _eigensolve(self, ch: KSChannel) -> None:
        """One ChFES step for a channel, ``filter_passes`` warm passes from
        its own Ritz pairs after the first SCF step.

        On the first step the first channel of each spin runs
        ``N_INIT_PASSES`` from a random start.  A later one starts from its
        :meth:`_warm_neighbour`'s Ritz vectors, Bloch-lifted to its k-point,
        plus ``LIFT_NOISE`` times the random start it would have drawn, and
        runs ``filter_passes`` in that neighbour's Ritz window.
        """
        opts = self.options
        op = ch.op
        first = ch.psi is None
        with trace_region("ChFES", kpoint=ch.kfrac, spin=ch.spin, first=first):
            X, evals, hx0 = ch.psi, ch.evals, None
            passes = opts.filter_passes
            if not first and ch.hpsi is not None and ch.hpsi_v is not None:
                # the potential term of H~ is exactly diagonal, so the HX
                # rotated out of the previous RR stage survives the SCF
                # potential update as hpsi + (v_new - v_old) o psi
                hx0 = adjust_carried_hx(
                    ch.hpsi, ch.psi, op.potential_free - ch.hpsi_v
                )
            seed = (
                int(1e6 * (1 + ch.kfrac[0] + 10 * ch.kfrac[1] + 100 * ch.kfrac[2]))
                + 7919 * (0 if ch.spin is None else ch.spin + 1)
            ) % 2**32
            src = self._warm_neighbour(ch) if first else None
            if src is not None:
                lifted = _bloch_lift(
                    self.mesh, src.psi, src.kfrac, ch.kfrac, op.dtype
                )
                noise = _random_start(op, self.nstates, seed, opts.block_size)
                X = cholesky_orthonormalize(
                    lifted + LIFT_NOISE * noise, block_size=opts.block_size
                )
                evals = src.evals
            elif first:
                passes = N_INIT_PASSES
            ch.evals, ch.psi, ch.hpsi = chfes_step(
                op, X, evals, hx0,
                b=op.spectral_upper_bound(),
                degree=CHEB_DEGREE,
                passes=max(passes, 1),
                block_size=opts.block_size,
                nstates=self.nstates,
                seed=seed,
                mixed_precision=opts.mixed_precision,
                ledger=self.ledger,
            )
            ch.hpsi_v = op.potential_free.copy()
