"""Fig 8: DFT-FE-MLXC strong scaling (YbCd, 75.07M DoF) on
Frontier/Perlmutter, and the MLXC-vs-PBE cost comparison.

The MLXC overhead claim ("Level 4+ MLXC incurs only a small overhead over
Level 2 PBE") is verified with *real* SCF runs of both functionals on this
host; the node-count scaling goes through the machine model.
"""

import pytest

from repro.hpc.machine import FRONTIER, PERLMUTTER
from repro.hpc.perfmodel import ModelOptions
from repro.hpc.runtime import PAPER_WORKLOADS, strong_scaling
from repro.obs import Stopwatch

from _harness import bench_seconds, read_results, write_result


def _measured_overlap_residual() -> float | None:
    """Latest measured ``overlap_residual`` from BENCH_procranks, if any.

    The process-rank backend (bench_procranks.py) measures compute,
    unhidden comm and overlapped wall on this host; its fitted residual
    replaces the model's default 0.08 — the measured side of the
    modeled-vs-measured loop this benchmark closes.
    """
    residual = None
    for rec in read_results("procranks"):
        value = rec.get("metrics", {}).get("overlap_residual")
        if value is not None:
            residual = float(value)
    return residual


def test_fig8_modeled_curves(benchmark, table_printer):
    wl = PAPER_WORKLOADS["YbCdQC"]
    residual = _measured_overlap_residual()

    def build():
        out = {}
        out["Perlmutter"] = strong_scaling(
            wl, PERLMUTTER, [140, 280, 560, 1120], ModelOptions(use_rccl=True)
        )
        out["Frontier"] = strong_scaling(wl, FRONTIER, [120, 240, 480, 960])
        if residual is not None:
            out["Perlmutter/measured-overlap"] = strong_scaling(
                wl, PERLMUTTER, [140, 280, 560, 1120],
                ModelOptions(use_rccl=True, overlap_residual=residual),
            )
        return out

    curves = benchmark(build)
    for machine, curve in curves.items():
        table_printer(
            f"Fig 8 (model): YbCd walltime/SCF on {machine}",
            ["nodes", "s/SCF", "efficiency"],
            [(n, t, e) for n, t, e in curve],
        )
    write_result(
        "fig8_scaling",
        params={"workload": "YbCdQC"},
        wall_seconds=bench_seconds(benchmark),
        metrics={
            "calibration": {
                "overlap_residual_default": ModelOptions().overlap_residual,
                "overlap_residual_measured": residual,
                "source": "BENCH_procranks" if residual is not None else None,
            },
            "curves": {
                machine: [
                    {"nodes": n, "scf_seconds": t, "efficiency": e}
                    for n, t, e in curve
                ]
                for machine, curve in curves.items()
            },
        },
    )
    perl = curves["Perlmutter"]
    assert perl[2][2] > 0.5  # ~80% at the paper's 560-node sweet spot
    assert 15 < perl[-1][1] < 40  # ~25 s/SCF at 1120 nodes
    if residual is not None:
        # a well-overlapped measured residual (< default) can only help
        for (n0, t0, _), (n1, t1, _) in zip(
            curves["Perlmutter"], curves["Perlmutter/measured-overlap"]
        ):
            assert n0 == n1
            if residual <= ModelOptions().overlap_residual:
                assert t1 <= t0 + 1e-12


@pytest.mark.slow
def test_fig8_mlxc_overhead_vs_pbe(benchmark):
    """Real SCF: MLXC walltime within ~5x of PBE here — ~2x per SCF iteration,
    and the 60-epoch bootstrapped network needs 24 iterations to PBE's 10
    (paper, at production scale: 'similar')."""
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions
    from repro.xc.gga import PBE
    from repro.xc.mlxc import MLXC

    config = AtomicConfiguration(["H", "H"], [[0, 0, 0], [1.4, 0, 0]])

    def run(xc):
        calc = DFTCalculation(
            config, xc=xc, padding=8.0, cells_per_axis=4, degree=4,
            options=SCFOptions(max_iterations=25, density_tol=1e-5),
        )
        watch = Stopwatch()
        res = calc.run()
        return watch.elapsed(), res

    def compare():
        t_pbe, _ = run(PBE())
        t_mlxc, _ = run(MLXC.bootstrapped_from(PBE(), epochs=60, n_samples=800))
        return t_pbe, t_mlxc

    t_pbe, t_mlxc = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(
        f"\n--- Fig 8 (measured): SCF walltime PBE {t_pbe:.1f}s vs "
        f"MLXC {t_mlxc:.1f}s (ratio {t_mlxc / t_pbe:.2f})"
    )
    write_result(
        "fig8_mlxc_overhead",
        params={"molecule": "H2", "max_iterations": 25},
        wall_seconds=bench_seconds(benchmark),
        metrics={
            "pbe_seconds": t_pbe,
            "mlxc_seconds": t_mlxc,
            "ratio": t_mlxc / t_pbe,
        },
    )
    # On this laptop-scale system (M ~ 5e3, N ~ 5) the O(M) neural XC
    # evaluation is visible next to the O(M N^2) eigensolver; at the
    # paper's production scale (M ~ 7.5e7, N ~ 2.3e4) the same O(M) cost
    # is negligible, which is why the paper sees near-identical walltimes.
    # Measured ratio on this host (three runs): 4.5-5.1 with the
    # back-propagated potential (15.8-17.3 with six complex-step forwards).
    assert t_mlxc < 8.0 * t_pbe
