"""Screening campaigns: sweep a structure family with warm-start reuse.

:class:`ScreenCampaign` turns a :class:`~repro.screen.family.
StructureFamily` into an execution plan and runs it small-to-large, so
every solve after the first few **anchors** starts from reused state
instead of cold:

1. the family's one shared domain is discretized once: every member
   reuses its mesh / ScatterMap / quadrature construction;
2. the **seed store** (:mod:`repro.screen.seeds`) warm-starts each
   member from its nearest converged neighbor;
3. the **density surrogate** (:mod:`repro.screen.surrogate`), trained
   on the members solved so far, covers members whose neighbors are out
   of distribution;
4. anything still unseeded falls back to the superposition-of-atomic-
   densities cold start.

Correctness is non-negotiable: a seed changes the iteration count,
never the answer.  ``tests/test_screen.py`` gates every seeded member's
energy against its cold-start golden value at 1e-12 while demonstrating
the >= 25% iteration saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.fem.mesh import Mesh3D
from repro.obs import Stopwatch, add_counter, trace_region

from .family import StructureFamily, domain_mesh, family_domain
from .seeds import SeedStore
from .surrogate import DensitySurrogate

__all__ = [
    "CampaignReport",
    "MemberOutcome",
    "ScreenCampaign",
]

#: screening runs tighter than the interactive defaults (``ScreenCampaign``'s
#: default ``SCFOptions``, keyed by field): the 1e-12
#: cold-vs-seeded energy gate needs the fixed point pinned well below the
#: gate and the eigensolver double-filtered (one Chebyshev pass keeps
#: ~5e-12 of subspace trajectory memory); the Hartree solve is a pure
#: function of the density, so ``poisson_tol`` only bounds its verified
#: residual
SCREEN_SCF_DEFAULTS = dict(
    max_iterations=300, density_tol=1e-14, energy_tol=1e-14,
    filter_passes=2, poisson_tol=1e-12,
)


@dataclass(frozen=True)
class MemberOutcome:
    """One solved member: result plus how its start was chosen."""

    name: str
    params: dict
    n_electrons: int
    energy: float
    free_energy: float
    iterations: int
    converged: bool
    #: "cold" | "neighbor" | "interpolated" | "surrogate"
    seed_source: str
    seed_info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CampaignReport:
    """What a campaign hands back (and what the benchmark ledger meters)."""

    family: str
    outcomes: tuple[MemberOutcome, ...]
    wall_seconds: float
    seed_stats: dict = field(default_factory=dict)
    setup_cache: dict = field(default_factory=dict)
    surrogate_stats: dict = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        return sum(o.iterations for o in self.outcomes)

    @property
    def seeded_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        seeded = sum(1 for o in self.outcomes if o.seed_source != "cold")
        return seeded / len(self.outcomes)

    def counts_by_source(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.seed_source] = counts.get(o.seed_source, 0) + 1
        return counts

    def energies(self) -> dict[str, float]:
        return {o.name: o.energy for o in self.outcomes}

    def as_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "members": len(self.outcomes),
            "total_iterations": self.total_iterations,
            "seeded_fraction": self.seeded_fraction,
            "counts_by_source": self.counts_by_source(),
            "wall_seconds": self.wall_seconds,
            "seed_stats": dict(self.seed_stats),
            "setup_cache": dict(self.setup_cache),
            "surrogate_stats": dict(self.surrogate_stats),
            "outcomes": [
                {
                    "name": o.name,
                    "n_electrons": o.n_electrons,
                    "energy": o.energy,
                    "iterations": o.iterations,
                    "converged": o.converged,
                    "seed_source": o.seed_source,
                }
                for o in self.outcomes
            ],
        }


class ScreenCampaign:
    """Plan and run one family sweep with warm-start reuse.

    ``seeding=False`` disables both reuse layers — that is the cold
    baseline the benchmark compares against.  ``n_anchors`` members run
    cold unconditionally at the head of the (size-ascending) plan; they
    are the seed store's first deposits and the surrogate's training
    set.
    """

    def __init__(
        self,
        family: StructureFamily,
        *,
        xc: str = "lda",
        degree: int = 3,
        cells_per_axis: int = 3,
        padding: float = 6.0,
        grading_ratio: float = 2.0,
        options: SCFOptions | None = None,
        seeding: bool = True,
        surrogate: DensitySurrogate | bool = False,
        n_anchors: int = 1,
        surrogate_min_members: int = 2,
        ood_threshold: float = 0.5,
    ) -> None:
        if n_anchors < 1:
            raise ValueError("campaigns need at least one cold anchor")
        if xc not in ("lda", "pbe"):
            raise ValueError("xc must be 'lda' or 'pbe'")
        if not family.isolated:
            raise ValueError(
                "screening campaigns need an isolated-system family "
                "(one shared domain); run periodic cells through "
                "DFTCalculation directly"
            )
        self.family = family
        self.xc = xc
        self.degree = int(degree)
        self.cells_per_axis = int(cells_per_axis)
        self.padding = float(padding)
        self.grading_ratio = float(grading_ratio)
        self.options = (
            options if options is not None else SCFOptions(**SCREEN_SCF_DEFAULTS)
        )
        self.seeding = bool(seeding)
        self.n_anchors = int(n_anchors)
        self.surrogate_min_members = int(surrogate_min_members)
        self.store = SeedStore(ood_threshold=ood_threshold)
        if isinstance(surrogate, DensitySurrogate):
            self.surrogate: DensitySurrogate | None = surrogate
        elif surrogate:
            self.surrogate = DensitySurrogate()
        else:
            self.surrogate = None

    # ------------------------------------------------------------------
    def _xc(self) -> Any:
        from repro.xc import LDA, PBE

        return {"lda": LDA, "pbe": PBE}[self.xc]()

    def _surrogate_ready(self) -> bool:
        s = self.surrogate
        if s is None or s.n_members < self.surrogate_min_members:
            return False
        if not s.trained:
            s.fit()
        return True

    def _choose_seed(
        self,
        rank: int,
        descriptor: np.ndarray,
        mesh: Mesh3D,
        config: AtomicConfiguration,
    ) -> tuple[np.ndarray | None, str, dict]:
        """The decision ladder: anchor -> neighbor -> surrogate -> cold."""
        if not self.seeding or rank < self.n_anchors:
            return None, "cold", {"reason": "anchor" if self.seeding else "off"}
        rho, info = self.store.seed_for(
            descriptor, mesh, config.n_electrons
        )
        if rho is not None:
            source = (
                "neighbor" if info.get("source") == "exact" else "interpolated"
            )
            add_counter("screen_seed_hits", 1)
            return rho, source, info
        if self._surrogate_ready():
            assert self.surrogate is not None
            rho, sinfo = self.surrogate.predict(mesh, config)
            if rho is not None:
                add_counter("screen_surrogate_hits", 1)
                return rho, "surrogate", sinfo
            info = {**info, "surrogate": sinfo}
        add_counter("screen_cold_starts", 1)
        return None, "cold", info

    def _surrogate_dict(self) -> dict[str, Any]:
        s = self.surrogate
        if s is None:
            return {}
        return {
            "members": s.n_members,
            "samples": s.n_samples,
            "trained": s.trained,
            "final_loss": s.final_loss,
        }

    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Solve every member in-process, small-to-large."""
        plan = self.family.ordered()
        lengths, configs = family_domain(self.family, self.padding)
        mesh = domain_mesh(lengths, self.cells_per_axis, self.degree, self.grading_ratio)
        watch = Stopwatch()
        outcomes: list[MemberOutcome] = []
        with trace_region(
            "screen.campaign", family=self.family.name, members=len(plan)
        ):
            for rank, member in enumerate(plan):
                config = configs[member.name]
                if rank > 0:  # reuses the one mesh built above
                    add_counter("screen_setup_cache_hits", 1)
                descriptor = member.descriptor()
                seed, source, info = self._choose_seed(
                    rank, descriptor, mesh, config
                )
                with trace_region(
                    "screen.member", member=member.name, seed=source
                ):
                    calc = DFTCalculation(
                        config, xc=self._xc(), mesh=mesh,
                        options=self.options,
                    )
                    with calc:
                        res = calc.run(rho0=seed)
                add_counter("screen_scf_iterations", res.n_iterations)
                self.store.put(member.name, descriptor, res.rho_spin, mesh)
                if self.surrogate is not None:
                    self.surrogate.add_sample(mesh, config, res.rho_spin)
                outcomes.append(
                    MemberOutcome(
                        name=member.name,
                        params=dict(member.params),
                        n_electrons=int(config.n_electrons),
                        energy=float(res.energy),
                        free_energy=float(res.free_energy),
                        iterations=int(res.n_iterations),
                        converged=bool(res.converged),
                        seed_source=source,
                        seed_info=info,
                    )
                )
        return CampaignReport(
            family=self.family.name,
            outcomes=tuple(outcomes),
            wall_seconds=watch.elapsed(),
            seed_stats=self.store.stats.as_dict(),
            setup_cache={"hits": float(len(plan) - 1), "misses": 1.0},
            surrogate_stats=self._surrogate_dict(),
        )
