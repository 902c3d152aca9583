"""The seven canonical workloads of the benchmark ledger.

Each workload turns ``(seed, size)`` into generated inputs, builds the
program's own driver object from them (the *setup*), runs the timed
call(s) (the *solve*), and checks what came back against the references
pinned in ``reference.json``.  The program sees only the generated
inputs; everything here goes through public entry points of ``repro``.

Why these seven (see README.md for the interaction table):

* ``scf_h2o``        — EP-bound: the Poisson solve dominates an LDA SCF.
* ``scf_mg32_k2``    — the paper's Mg-alloy regime in miniature: CF and
  the subspace kernels through the complex Bloch apply, the periodic
  Poisson path and two k channels; EP work should not show here.
* ``scf_mg32_proc2`` — the same crystal at Gamma on two forked ranks:
  the only place halo bytes and wait time exist.
* ``scf_lih_mlxc``   — XC-bound: the paper's functional; LDA workloads
  bypass the MLP entirely.
* ``pipeline_h2``    — the Fig. 2 data flow: only here do ``qmb``,
  ``invdft`` and ``ml`` do the work.
* ``screen_h2_scan`` — the ``fem``/``core`` layers used as many small
  *warm* solves at a 1000x tighter Poisson tolerance.
* ``serve_wave``     — the service: queue, scheduler, cache, sliced SCF.

Seeds: ``seed % N_VARIANTS`` picks an input variant, because every
variant needs a pinned tight-tolerance reference to be checked against
and the driver that runs this benchmark cannot compute one first.
Variant 0 is the canonical geometry; the others rattle every atom by at
most ``RATTLE_BOHR`` and shift the bond grid by at most ``GRID_SHIFT_BOHR``.  The probe
stream of ``serve_wave`` needs no reference and uses the raw seed.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import zlib

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.pipeline import MOLECULE_LIBRARY

from layers import clock

__all__ = ["WORKLOADS", "N_VARIANTS", "Op", "make_workload", "percentile"]

N_VARIANTS = 8
#: largest displacement of any atom in a variant
RATTLE_BOHR = 0.02
#: largest shift of the bond grid.  Ten times smaller: at the campaign's
#: 1e-14 tolerances the iteration count of a member moves with the last
#: digits of its geometry, and a 0.02 Bohr shift spreads the campaign's
#: wall by 7 % between variants where 0.002 Bohr spreads it by 2.5 %
GRID_SHIFT_BOHR = 0.002

#: tight-tolerance options every SCF reference is computed with
TIGHT = dict(
    max_iterations=200, density_tol=1e-10, energy_tol=1e-12,
    poisson_tol=1e-12, filter_passes=2,
)

SIZES = {
    "full": {
        "scf_h2o": dict(degree=4, cells=4),
        "scf_mg32_k2": dict(reps=(2, 2, 2), degree=3, cells=(3, 5, 5)),
        "scf_mg32_proc2": dict(reps=(2, 2, 2), degree=3, cells=(3, 5, 5)),
        "scf_lih_mlxc": dict(degree=4, cells=3),
        "pipeline_h2": dict(
            degree=3, cells=4, invdft_iters=6, invdft_cap=18, epochs=3
        ),
        "screen_h2_scan": dict(
            bonds=(1.15, 1.20, 1.25, 1.30), degree=3, cells=4, padding=5.0,
        ),
        "serve_wave": dict(
            probe_jobs=2000, burst_jobs=2000, open_rate=400.0, open_seconds=3.0,
            scf_degree=2, scf_cells=3,
        ),
    },
    "smoke": {
        "scf_h2o": dict(degree=3, cells=3),
        "scf_mg32_k2": dict(reps=(1, 1, 1), degree=3, cells=(2, 3, 3)),
        "scf_mg32_proc2": dict(reps=(1, 1, 1), degree=3, cells=(2, 3, 3)),
        "scf_lih_mlxc": dict(degree=2, cells=3),
        "pipeline_h2": dict(
            degree=2, cells=3, invdft_iters=2, invdft_cap=6, epochs=1
        ),
        "screen_h2_scan": dict(
            bonds=(1.30, 1.40), degree=2, cells=2, padding=5.0
        ),
        "serve_wave": dict(
            probe_jobs=60, burst_jobs=60, open_rate=200.0, open_seconds=0.3,
            scf_degree=2, scf_cells=3,
        ),
    },
}


class Op:
    """What one timed operation produced, ready for checking."""

    def __init__(self, wall_s: float, energies: dict, checks: list,
                 info: dict | None = None, latencies_s: list | None = None,
                 jobs_per_s: float | None = None) -> None:
        self.wall_s = wall_s
        #: name -> energy (Ha), compared with the reference of the same name
        self.energies = energies
        #: (label, passed) pairs the workload could decide on its own
        self.checks = checks
        self.info = info or {}
        #: ascending per-request latencies (one operation is one request)
        self.latencies_s = latencies_s if latencies_s is not None else [wall_s]
        self.jobs_per_s = jobs_per_s if jobs_per_s is not None else 1.0 / wall_s


def _rattled(positions, variant: int, tag: str) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if variant == 0:
        return positions
    rng = np.random.default_rng([variant, zlib.crc32(tag.encode())])
    step = rng.uniform(-1.0, 1.0, positions.shape)
    return positions + step * (RATTLE_BOHR / math.sqrt(3.0))


def _molecule(name: str, variant: int) -> AtomicConfiguration:
    symbols, positions, *_ = MOLECULE_LIBRARY[name]
    return AtomicConfiguration(list(symbols), _rattled(positions, variant, name))


def _mg_supercell(reps, variant: int) -> AtomicConfiguration:
    from repro.materials.lattice import hcp_orthorhombic, supercell

    lattice, symbols, frac = hcp_orthorhombic()
    ideal = supercell(lattice, symbols, frac, tuple(reps))
    return AtomicConfiguration(
        list(ideal.symbols), _rattled(ideal.positions, variant, "Mg"),
        lattice=ideal.lattice, pbc=ideal.pbc,
    )


def _finite(x: float) -> bool:
    return bool(np.isfinite(x))


# ---------------------------------------------------------------------------
class Workload:
    """Base: one seeded input set and the verbs ``child.py`` calls on it."""

    name = ""
    #: False when a reference is the same for every variant
    rattles = True
    #: largest |E - E_ref| (Ha) at which a solve still counts as correct;
    #: ``--make-reference`` copies it into reference.json, checks read it there
    accuracy_ha = 0.0

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed = abs(int(seed))  # numpy generators refuse negative seeds
        self.variant = self.seed % N_VARIANTS if self.rattles else 0
        self.size = size
        self.p = SIZES[size][self.name]
        self.scratch = scratch
        #: this variant's entry of reference.json plus the workload's
        #: ``accuracy_ha``; the child sets it (None while it is being made)
        self.ref: dict | None = None

    def build(self, ledger=None):
        """Construct the program's driver object (timed as set-up)."""
        raise NotImplementedError

    def solve(self, driver) -> Op:
        """Run the timed call(s) and release the driver."""
        raise NotImplementedError

    def discard(self, driver) -> None:
        """Release a driver that was built but will not be solved."""

    def warm_up(self) -> None:
        """Untimed work that puts the process in its steady state."""

    def reference(self) -> dict:
        """Compute this variant's entry of ``reference.json`` (slow)."""
        raise NotImplementedError

    def check(self, op: Op) -> tuple[list, float]:
        """All (label, passed) checks of one operation and its energy error.

        Every failed check is one failed operation in ``failed_frac``; an
        energy the reference names but the operation did not report fails
        too, instead of raising and hiding the other workloads.
        """
        checks = list(op.checks)
        worst = 0.0
        for name, e_ref in self.ref["energies"].items():
            reported = name in op.energies
            checks.append((f"reported:{name}", reported))
            if reported:
                worst = max(worst, abs(op.energies[name] - e_ref))
        checks.append(("within_accuracy", worst <= self.ref["accuracy_ha"]))
        return checks, worst

    def traced_extras(self, ops: dict) -> dict:
        """Traced-pass-only phases -> {layer metric: value}.

        ``ops`` holds the child's ``"untraced"`` and ``"traced"`` Op.
        """
        return {}


class SCFWorkload(Workload):
    """One ``DFTCalculation.run()`` at default tolerances."""

    kpoints = None
    #: SCFOptions overrides; everything else stays at its default
    options: dict = {}

    def config(self) -> AtomicConfiguration:
        raise NotImplementedError

    def xc(self):
        from repro.xc import LDA

        return LDA()

    def calculation(self, options: dict, ledger=None) -> DFTCalculation:
        return DFTCalculation(
            self.config(), xc=self.xc(), degree=self.p["degree"],
            cells_per_axis=self.p["cells"], kpoints=self.kpoints,
            options=SCFOptions(**options), ledger=ledger,
        )

    def build(self, ledger=None):
        return self.calculation(self.options, ledger)

    def solve(self, calc) -> Op:
        t0 = clock()
        res = calc.run()
        wall = clock() - t0
        info = self.read_counters(calc)
        calc.close()
        energy = float(res.energy)
        info["scf_iters"] = int(res.n_iterations)
        return Op(
            wall, {"energy": energy},
            [("converged", bool(res.converged)), ("finite", _finite(energy))]
            + self.after_close(),
            info,
        )

    def discard(self, calc) -> None:
        calc.close()

    def read_counters(self, calc) -> dict:
        out = {}
        if calc.driver.ledger is not None:
            out["flops_counted"] = float(calc.driver.ledger.total_counted_flops())
        return out

    def after_close(self) -> list:
        return []

    def tight_options(self) -> dict:
        return {**self.options, **TIGHT}

    def reference(self) -> dict:
        with self.calculation(self.tight_options()) as calc:
            res = calc.run()
        # the residual actually reached is part of the record: not every
        # system gets to TIGHT's density_tol inside its iteration cap
        return {
            "energies": {"energy": float(res.energy)},
            "converged": bool(res.converged),
            "iterations": int(res.n_iterations),
            "residual": float(res.history[-1]["residual"]),
        }

    def traced_extras(self, ops: dict) -> dict:
        return {"core.flops_counted": ops["traced"].info.get("flops_counted", 0.0)}


class ScfH2O(SCFWorkload):
    name = "scf_h2o"
    accuracy_ha = 5e-5

    def config(self):
        return _molecule("H2O", self.variant)


class ScfMg32K2(SCFWorkload):
    name = "scf_mg32_k2"
    accuracy_ha = 1e-4
    kpoints = [((0.0, 0.0, 0.0), 0.5), ((0.0, 0.0, 0.25), 0.5)]
    options = dict(temperature=5e-3)

    def config(self):
        return _mg_supercell(self.p["reps"], self.variant)


class ScfMg32Proc2(SCFWorkload):
    name = "scf_mg32_proc2"
    accuracy_ha = 1e-4
    options = dict(temperature=5e-3, backend="proc", nranks=2)

    def config(self):
        return _mg_supercell(self.p["reps"], self.variant)

    def serial_options(self) -> dict:
        return dict(temperature=5e-3)

    def tight_options(self) -> dict:
        # the reference is the serial operator's answer: the partitioned
        # one is measured against it, not against itself
        return {**self.serial_options(), **TIGHT}

    def read_counters(self, calc) -> dict:
        out = super().read_counters(calc)
        op = calc.driver.channels[0].op
        if not hasattr(op, "cluster"):  # the serial twin
            return out
        out["traffic"] = {
            "p2p_bytes": float(op.traffic.p2p_bytes),
            "p2p_messages": int(op.traffic.p2p_messages),
            "allreduce_bytes": float(op.traffic.allreduce_bytes),
        }
        out["halo_wait_fraction"] = float(
            op.cluster.phase_report()["halo_wait_fraction"]
        )
        return out

    def after_close(self) -> list:
        from repro.hpc.procranks import SharedArena

        return [("no_leaked_segments", SharedArena.live_segment_names() == [])]

    def traced_extras(self, ops: dict) -> dict:
        # the plain single-threaded run of the same problem
        twin = SCFWorkload.solve(self, self.calculation(self.serial_options()))
        proc, traced = ops["untraced"], ops["traced"]
        traffic = traced.info["traffic"]
        return {
            **super().traced_extras(ops),
            "hpc.speedup_vs_serial": twin.wall_s / proc.wall_s,
            "hpc.energy_gap_vs_serial_ha": abs(
                proc.energies["energy"] - twin.energies["energy"]
            ),
            "hpc.halo_bytes": traffic["p2p_bytes"],
            "hpc.halo_messages": traffic["p2p_messages"],
            "hpc.allreduce_bytes": traffic["allreduce_bytes"],
            "hpc.halo_wait_frac": traced.info["halo_wait_fraction"],
        }


class ScfLiHMLXC(SCFWorkload):
    name = "scf_lih_mlxc"
    accuracy_ha = 1e-5

    def config(self):
        return _molecule("LiH", self.variant)

    def xc(self):
        from repro.xc import MLXC

        return MLXC.pretrained()


# ---------------------------------------------------------------------------
class PipelineH2(Workload):
    """qmb_reference -> invDFT to a pinned density error -> MLXC training."""

    name = "pipeline_h2"
    accuracy_ha = 1e-6
    #: the generated geometry enters the program through its molecule table
    library_name = "ledger-H2"

    def build(self, ledger=None):
        from repro.xc import MLXC

        symbols, positions, n_a, n_b, n_orb = MOLECULE_LIBRARY["H2"]
        MOLECULE_LIBRARY[self.library_name] = (
            symbols, _rattled(positions, self.variant, "H2").tolist(),
            n_a, n_b, n_orb,
        )
        return MLXC.pretrained()

    def _invert(self, ref, tol: float, max_iterations: int):
        from repro.invdft import InverseDFT
        from repro.xc import LDA

        mesh = ref.calc.mesh
        inv = InverseDFT(
            mesh, ref.calc.config, ref.rho_qmb_spin,
            nstates=max(ref.n_alpha, ref.n_beta) + 3,
            minres_tol=1e-6, minres_maxiter=150,
        )
        v0, _ = LDA().potential_and_energy(mesh, ref.rho_qmb_spin)
        return inv, inv.run(v0, eta=2.0, max_iterations=max_iterations, tol=tol)

    def solve(self, functional, target: float | None = None) -> Op:
        from repro.invdft import exact_xc_energy
        from repro.ml.training import MLXCTrainer, assemble_sample
        from repro.pipeline import qmb_reference

        if target is None:
            target = self.ref["invdft_target"]
        t0 = clock()
        ref = qmb_reference(
            self.library_name, cells_per_axis=self.p["cells"],
            degree=self.p["degree"],
        )
        inv, out = self._invert(ref, target, self.p["invdft_cap"])
        exc = float(exact_xc_energy(inv, out, ref.e_fci))
        sample = assemble_sample(
            self.library_name, ref.calc.mesh, ref.rho_qmb_spin, out.v_xc, exc
        )
        history = MLXCTrainer([sample], functional).train(
            epochs=self.p["epochs"]
        )
        wall = clock() - t0
        ref.calc.close()
        final_loss = float(history[-1]["total"])
        return Op(
            wall, {"exc_exact": exc},
            [
                ("invdft_reached_target", bool(out.converged)),
                ("finite", _finite(exc) and _finite(final_loss)),
            ],
            {
                "final_loss": final_loss,
                "density_err_final": float(out.density_error),
                "e_fci": float(ref.e_fci),
            },
        )

    def reference(self) -> dict:
        from repro.pipeline import qmb_reference

        functional = self.build()
        ref = qmb_reference(
            self.library_name, cells_per_axis=self.p["cells"],
            degree=self.p["degree"],
        )
        n = self.p["invdft_iters"]
        _, free = self._invert(ref, 0.0, n)
        errs = [h["density_error"] for h in free.history]
        # between the errors of outer iterations n-1 and n: the seed code
        # crosses it at iteration n whatever the last bits do
        target = math.sqrt(errs[n - 2] * errs[n - 1])
        op = self.solve(functional, target=target)
        return {
            "energies": op.energies,
            "invdft_target": target,
            "density_err_cap": target,
            "final_loss_cap": 1.5 * op.info["final_loss"],
        }

    def check(self, op: Op) -> tuple[list, float]:
        checks, worst = super().check(op)
        checks.append((
            "density_err_under_cap",
            op.info["density_err_final"] <= self.ref["density_err_cap"],
        ))
        checks.append((
            "final_loss_under_cap",
            op.info["final_loss"] <= self.ref["final_loss_cap"],
        ))
        return checks, worst

    def traced_extras(self, ops: dict) -> dict:
        info = ops["traced"].info
        return {
            "ml.final_loss": info["final_loss"],
            "invdft.density_err_final": info["density_err_final"],
        }


# ---------------------------------------------------------------------------
class ScreenH2Scan(Workload):
    name = "screen_h2_scan"
    accuracy_ha = 1e-11

    def campaign(self, seeding: bool):
        from repro.screen import ScreenCampaign, dimer_family

        shift = 0.0
        if self.variant:
            rng = np.random.default_rng([self.variant, zlib.crc32(b"bonds")])
            shift = float(rng.uniform(-GRID_SHIFT_BOHR, GRID_SHIFT_BOHR))
        bonds = tuple(round(b + shift, 6) for b in self.p["bonds"])
        return ScreenCampaign(
            dimer_family(bonds=bonds), degree=self.p["degree"],
            cells_per_axis=self.p["cells"], padding=self.p["padding"],
            seeding=seeding, surrogate=seeding,
        )

    def build(self, ledger=None):
        return self.campaign(seeding=True)

    def solve(self, campaign) -> Op:
        t0 = clock()
        report = campaign.run()
        wall = clock() - t0
        seeds = report.seed_stats
        return Op(
            wall, report.energies(),
            [(f"converged:{o.name}", bool(o.converged)) for o in report.outcomes],
            {
                "members": len(report.outcomes),
                "scf_iters": int(report.total_iterations),
                "member_s": report.wall_seconds / len(report.outcomes),
                "seed_hit_frac": float(seeds.get("hit_rate", 0.0)),
                "setup_cache_hits": float(report.setup_cache["hits"]),
            },
        )

    def reference(self) -> dict:
        cold = self.solve(self.campaign(seeding=False))
        return {"energies": cold.energies, "cold_scf_iters": cold.info["scf_iters"]}

    def traced_extras(self, ops: dict) -> dict:
        cold = self.solve(self.campaign(seeding=False))
        seeded = ops["traced"].info
        out = {
            f"screen.{key}": seeded[key]
            for key in ("scf_iters", "member_s", "seed_hit_frac", "setup_cache_hits")
        }
        out["screen.iters_saved_frac"] = (
            1.0 - seeded["scf_iters"] / cold.info["scf_iters"]
        )
        return out


# ---------------------------------------------------------------------------
def percentile(sorted_values: list, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class ServeWave(Workload):
    """Closed loop of probe jobs, then four sliced SCF jobs."""

    name = "serve_wave"
    accuracy_ha = 1e-4
    rattles = False
    scf_molecules = ("H2", "LiH", "He", "Li")
    probe_size = 48
    redraw_frac = 0.3
    total_ranks = 4
    slice_iterations = 2

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        super().__init__(seed, size, scratch)
        self.clients = os.cpu_count() or 1
        self._builds = 0
        self._direct: dict | None = None

    # -- load generation ----------------------------------------------------
    def probe_stream(self, n: int, salt: int, redraw: float) -> list:
        """``n`` probe specs; a ``redraw`` share repeats an earlier one."""
        from repro.serve import ProbeJobSpec

        rng = random.Random(self.seed * 7919 + salt)
        base = (self.seed * 16 + salt) * 1_000_000
        specs, fresh = [], []
        for i in range(n):
            if fresh and rng.random() < redraw:
                specs.append(fresh[rng.randrange(len(fresh))])
            else:
                spec = ProbeJobSpec(seed=base + i, size=self.probe_size, iters=3)
                fresh.append(spec)
                specs.append(spec)
        return specs

    def scf_specs(self) -> list:
        from repro.serve import SCFJobSpec

        return [
            SCFJobSpec(
                molecule=m, degree=self.p["scf_degree"], cells=self.p["scf_cells"]
            )
            for m in self.scf_molecules
        ]

    def server(self):
        from repro.serve import SchedulerPolicy, SimulationServer

        self._builds += 1
        workdir = os.path.join(self.scratch, f"serve-{self._builds}")
        return SimulationServer(
            workdir,
            policy=SchedulerPolicy(
                total_ranks=self.total_ranks,
                slice_iterations=self.slice_iterations,
            ),
            workers=self.clients,
        )

    def build(self, ledger=None):
        return {
            "server": self.server(),
            "probes": self.probe_stream(
                self.p["probe_jobs"], salt=0, redraw=self.redraw_frac
            ),
            "scf": self.scf_specs(),
        }

    # -- the timed wave -------------------------------------------------------
    async def _closed_loop(self, server, specs) -> tuple:
        """``clients`` callers, each submit -> wait -> next."""
        queue = iter(specs)
        done = []

        async def client():
            for spec in queue:
                t0 = clock()
                job = await server.submit(spec)
                await server.wait(job)
                done.append((clock() - t0, job))

        t0 = clock()
        await asyncio.gather(*(client() for _ in range(self.clients)))
        return clock() - t0, done

    async def _wave(self, driver) -> dict:
        async with driver["server"] as server:
            probe_wall, done = await self._closed_loop(server, driver["probes"])
            t0 = clock()
            scf_jobs = [await server.submit(spec) for spec in driver["scf"]]
            for job in scf_jobs:
                await server.wait(job)
            scf_wall = clock() - t0
            return {
                "probe_wall": probe_wall, "done": done, "scf_wall": scf_wall,
                "scf_jobs": scf_jobs, "stats": server.stats,
                "cache_stats": server.cache.stats,
            }

    def warm_up(self) -> None:
        # The first wave after the disk has been idle runs twice as fast as
        # the ones behind it (2 400 against 1 050 jobs/s: no dirty pages to
        # throttle its 1 400 small writes yet).  Users of a service meet the
        # steady state, so one wave is spent reaching it.
        self.solve(self.build())

    def solve(self, driver) -> Op:
        t0 = clock()
        wave = asyncio.run(self._wave(driver))
        wall = clock() - t0
        latencies = sorted(lat for lat, _ in wave["done"])
        stats = wave["stats"]
        energies = {
            job.spec.molecule: float(job.result["energy"])
            for job in wave["scf_jobs"] if job.result is not None
        }
        checks = self._check_probes([job for _, job in wave["done"]])
        checks += [
            (f"scf_done:{job.spec.molecule}",
             job.result is not None and bool(job.result["converged"]))
            for job in wave["scf_jobs"]
        ]
        direct = self.direct_energies()
        checks += [
            (f"scf_equals_direct:{m}", energies.get(m) == direct[m])
            for m in self.scf_molecules
        ]
        checks.append(("no_failed_jobs", stats.failed == 0))
        return Op(
            wall, energies, checks,
            {
                "scf_batch_s": wave["scf_wall"],
                "slices": int(stats.slices),
                "preemptions": int(stats.preemptions),
                "queue_depth_max": int(stats.max_queue_depth),
                "cache_hit_frac": float(wave["cache_stats"].hit_rate),
            },
            latencies_s=latencies,
            jobs_per_s=len(latencies) / wave["probe_wall"],
        )

    # -- output checks --------------------------------------------------------
    def _check_probes(self, jobs: list) -> list:
        """Every request answered; repeats agree; a sample recomputed."""
        from repro.serve import SliceContext, run_slice

        first: dict = {}
        answered = repeats_agree = True
        for job in jobs:
            if job.result is None:
                answered = False
                continue
            seen = first.setdefault(job.spec, job.result)
            repeats_agree = repeats_agree and seen == job.result
        step = max(1, len(jobs) // 16)
        recomputed = all(
            job.result == run_slice(job.spec, SliceContext()).payload
            for job in jobs[::step]
        )
        return [
            ("probes_answered", answered),
            ("probe_repeats_agree", repeats_agree),
            ("probe_sample_recomputed", recomputed),
        ]

    def _direct_calc(self, spec, options: dict) -> DFTCalculation:
        return DFTCalculation(
            _molecule(spec.molecule, 0), degree=spec.degree,
            cells_per_axis=spec.cells, padding=spec.padding,
            options=SCFOptions(**options),
        )

    def direct_energies(self) -> dict:
        """The served molecules solved by a plain DFTCalculation (once)."""
        if self._direct is None:
            self._direct = {}
            for spec in self.scf_specs():
                with self._direct_calc(
                    spec, dict(max_iterations=spec.max_scf)
                ) as calc:
                    self._direct[spec.molecule] = float(calc.run().energy)
        return self._direct

    def reference(self) -> dict:
        energies = {}
        for spec in self.scf_specs():
            with self._direct_calc(spec, TIGHT) as calc:
                energies[spec.molecule] = float(calc.run().energy)
        return {"energies": energies}

    # -- traced-only phases -----------------------------------------------------
    async def _burst(self, server, specs) -> float:
        t0 = clock()
        jobs = [await server.submit(spec) for spec in specs]
        for job in jobs:
            await server.wait(job)
        return len(jobs) / (clock() - t0)

    async def _open_loop(self, server, specs, rate: float) -> dict:
        """Send on a schedule; time each request from when it was due."""
        start = clock()
        late, waits = [], []

        async def finish(job, due):
            await server.wait(job)
            waits.append(clock() - due)

        pending = []
        for i, spec in enumerate(specs):
            due = start + i / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(clock() - due, 0.0))
            job = await server.submit(spec)
            pending.append(asyncio.ensure_future(finish(job, due)))
        await asyncio.gather(*pending)
        waits.sort()
        late.sort()
        return {
            "p50_ms": 1e3 * percentile(waits, 0.50),
            "p99_ms": 1e3 * percentile(waits, 0.99),
            "late_p99_ms": 1e3 * percentile(late, 0.99),
        }

    async def _extras(self) -> dict:
        rate = self.p["open_rate"]
        n_open = max(1, int(rate * self.p["open_seconds"]))
        burst = self.probe_stream(self.p["burst_jobs"], salt=1, redraw=0.0)
        out = {}
        async with self.server() as server:
            out["serve.burst_jobs_per_s"] = await self._burst(server, burst)
            out["serve.warm_jobs_per_s"] = await self._burst(server, burst)
        async with self.server() as server:
            alone = await self._open_loop(
                server, self.probe_stream(n_open, salt=2, redraw=0.0), rate
            )
        async with self.server() as server:
            scf_jobs = [await server.submit(spec) for spec in self.scf_specs()]
            beside = await self._open_loop(
                server, self.probe_stream(n_open, salt=3, redraw=0.0), rate
            )
            for job in scf_jobs:
                await server.wait(job)
        out["serve.open_p50_ms"] = alone["p50_ms"]
        out["serve.open_p99_ms"] = alone["p99_ms"]
        out["serve.open_gen_late_p99_ms"] = alone["late_p99_ms"]
        out["serve.open_p99_ms_beside_scf"] = beside["p99_ms"]
        return out

    def traced_extras(self, ops: dict) -> dict:
        out = asyncio.run(self._extras())
        info = ops["traced"].info
        for key in ("scf_batch_s", "slices", "preemptions", "queue_depth_max",
                    "cache_hit_frac"):
            out[f"serve.{key}"] = info[key]
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (
        ScfH2O, ScfMg32K2, ScfMg32Proc2, ScfLiHMLXC, PipelineH2, ScreenH2Scan,
        ServeWave,
    )
}


def make_workload(name: str, seed: int, size: str, scratch: str) -> Workload:
    return WORKLOADS[name](seed, size, scratch)
