"""Screen job kind for the serve runtime: one family member per job.

Campaigns submit members through :mod:`repro.serve` as batches of
``screen_member`` jobs.  The spec carries the *whole structure* (symbols
+ positions in shared-domain coordinates + the deterministic domain
discretization), so its SHA-256 content address identifies the physics
alone; warm-start seeds travel next to the spec as scheduling hints
(``ServeRequest.seed_rho`` -> ``Job.seed_rho`` -> ``SliceContext``),
never inside it — two campaigns that seed differently still share cache
entries, because a seed shapes the trajectory, not the fixed point.

The runner reconstructs the member's mesh bit-identically from the spec
(:func:`repro.screen.family.domain_mesh` is deterministic in its
arguments), applies the seed via ``SCFOptions.initial_rho_path`` and,
when the scheduler policy names an ``artifact_dir``, persists the
converged density as a seed artifact for later waves to harvest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.serve.jobs import JobSpec, register_job_type
from repro.serve.runners import RUNNERS, SliceContext, SliceOutcome

__all__ = [
    "SCREEN_SCF_DEFAULTS", "ScreenJobSpec", "run_screen_member",
    "seed_artifact_path",
]

_XC_CHOICES = ("lda", "pbe")

#: screening runs tighter than the interactive defaults (keyed by
#: ``SCFOptions`` field; the one declaration behind ``ScreenJobSpec``'s
#: field defaults and ``ScreenCampaign``'s default options): the 1e-12
#: cold-vs-seeded energy gate needs the fixed point pinned well below the
#: gate and the eigensolver double-filtered (one Chebyshev pass keeps
#: ~5e-12 of subspace trajectory memory); the Hartree solve is a pure
#: function of the density, so ``poisson_tol`` only bounds its verified
#: residual
SCREEN_SCF_DEFAULTS = dict(
    max_iterations=300, density_tol=1e-14, energy_tol=1e-14,
    filter_passes=2, poisson_tol=1e-12,
)


@register_job_type
@dataclass(frozen=True)
class ScreenJobSpec(JobSpec):
    """One family member: full structure + shared-domain discretization."""

    kind: ClassVar[str] = "screen_member"
    sliceable: ClassVar[bool] = False

    family: str = "family"
    member: str = "member"
    symbols: tuple[str, ...] = ("H", "H")
    #: Cartesian positions in shared-domain coordinates (Bohr)
    positions: tuple[tuple[float, float, float], ...] = (
        (5.0, 5.0, 5.0), (6.4, 5.0, 5.0),
    )
    #: shared-domain edge lengths (Bohr) — every member of a campaign
    #: carries the same domain, which is what makes meshes (and thus
    #: seed densities) portable across its jobs
    domain: tuple[float, float, float] = (11.4, 10.0, 10.0)
    xc: str = "lda"
    degree: int = 3
    cells: int = 3
    grading_ratio: float = 2.0
    max_scf: int = SCREEN_SCF_DEFAULTS["max_iterations"]
    density_tol: float = SCREEN_SCF_DEFAULTS["density_tol"]
    energy_tol: float = SCREEN_SCF_DEFAULTS["energy_tol"]
    filter_passes: int = SCREEN_SCF_DEFAULTS["filter_passes"]
    poisson_tol: float = SCREEN_SCF_DEFAULTS["poisson_tol"]
    ranks: int = 1

    def validate(self) -> None:
        super().validate()
        problems = []
        if not self.symbols:
            problems.append("needs at least one atom")
        if len(self.positions) != len(self.symbols):
            problems.append(
                f"{len(self.positions)} positions for "
                f"{len(self.symbols)} symbols"
            )
        if self.xc not in _XC_CHOICES:
            problems.append(f"xc must be one of {_XC_CHOICES}")
        if self.degree < 1 or self.cells < 2:
            problems.append("mesh needs degree >= 1 and cells >= 2")
        if self.max_scf < 1:
            problems.append("max_scf must be >= 1")
        if len(self.domain) != 3 or any(d <= 0 for d in self.domain):
            problems.append("domain lengths must be three positive numbers")
        else:
            for p in self.positions:
                if len(p) != 3 or any(
                    not 0.0 <= x <= d for x, d in zip(p, self.domain)
                ):
                    problems.append(f"position {p} outside the domain")
                    break
        if (
            self.density_tol <= 0
            or self.energy_tol <= 0
            or self.poisson_tol <= 0
        ):
            problems.append("tolerances must be positive")
        if self.filter_passes < 1:
            problems.append("filter_passes must be >= 1")
        if problems:
            raise ValueError(
                f"invalid screen_member spec: {'; '.join(problems)}"
            )


def seed_artifact_path(artifact_dir: str, spec: ScreenJobSpec) -> str:
    """Canonical artifact location for a member's converged density."""
    return os.path.join(artifact_dir, f"{spec.job_key()[:16]}.rho.npz")


def run_screen_member(spec: JobSpec, ctx: SliceContext) -> SliceOutcome:
    """Solve one member, optionally seeded, and persist its density."""
    assert isinstance(spec, ScreenJobSpec)
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions, save_seed_density
    from repro.xc import LDA, PBE

    from .family import domain_mesh

    options = SCFOptions(
        max_iterations=spec.max_scf,
        density_tol=spec.density_tol,
        energy_tol=spec.energy_tol,
        filter_passes=spec.filter_passes,
        poisson_tol=spec.poisson_tol,
        backend=ctx.backend,
        nranks=max(1, int(ctx.ranks)),
        initial_rho_path=ctx.seed_rho,
    )
    mesh = domain_mesh(spec.domain, spec.cells, spec.degree, spec.grading_ratio)
    config = AtomicConfiguration(
        list(spec.symbols), np.asarray(spec.positions, dtype=float)
    )
    xc = {"lda": LDA, "pbe": PBE}[spec.xc]()
    calc = DFTCalculation(config, xc=xc, mesh=mesh, options=options)
    with calc:
        res = calc.run()
    payload: dict[str, Any] = {
        "kind": "screen_member",
        "family": spec.family,
        "member": spec.member,
        "energy": float(res.energy),
        "free_energy": float(res.free_energy),
        "fermi_level": float(res.fermi_level),
        "converged": bool(res.converged),
        "n_iterations": int(res.n_iterations),
        "seeded": ctx.seed_rho is not None,
    }
    if ctx.artifact_dir is not None:
        os.makedirs(ctx.artifact_dir, exist_ok=True)
        path = seed_artifact_path(ctx.artifact_dir, spec)
        save_seed_density(
            path, mesh, res.rho_spin,
            metadata={"family": spec.family, "member": spec.member},
        )
        payload["artifact"] = path
    return SliceOutcome(
        "done", payload=payload, iterations=int(res.n_iterations)
    )


RUNNERS[ScreenJobSpec.kind] = run_screen_member
