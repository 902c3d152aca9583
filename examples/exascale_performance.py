"""Exascale performance study: regenerate the paper's Figs 4/5/7/8 and
Tables 1/2/3 from the calibrated machine model + measured local kernels.

Everything algorithmic (blocked cell-level GEMMs, mixed-precision CholGS/RR,
FP32 halo exchange) runs for real on this machine; the mapping to
Frontier/Summit/Perlmutter wall-clock goes through the roofline +
communication model of ``repro.hpc`` (the documented hardware substitution).

Usage::

    python examples/exascale_performance.py
"""

from repro.obs import Stopwatch

import numpy as np

from repro.fem.mesh import uniform_mesh
from repro.fem.assembly import KSOperator
from repro.core.chebyshev import chebyshev_filter
from repro.hpc.cluster import VirtualCluster
from repro.hpc.flops import FlopLedger
from repro.hpc.machine import CRUSHER, FRONTIER, PERLMUTTER, SUMMIT
from repro.hpc.perfmodel import ModelOptions, cf_block_efficiency
from repro.hpc.runtime import (
    PAPER_WORKLOADS,
    scf_breakdown,
    strong_scaling,
    time_to_solution,
)


def fig4_cf_block_size() -> None:
    print("=== Fig 4: CF efficiency vs block size B_f (DislocMgY, p=8)")
    print(f"    {'B_f':>5} {'Summit':>8} {'Crusher':>8} {'Perlmutter':>11}")
    for bf in (100, 200, 300, 400, 500):
        print(
            f"    {bf:>5} {cf_block_efficiency(SUMMIT, bf):>7.1%} "
            f"{cf_block_efficiency(CRUSHER, bf):>7.1%} "
            f"{cf_block_efficiency(PERLMUTTER, bf):>10.1%}"
        )
    print("    paper @500: Summit 56.3%, Crusher 41.1%, Perlmutter 85.7%")

    # measured on the host running the example: the same blocked CF kernel,
    # real numpy; the FLOPs are the ones the axis kernel charges to its ledger
    mesh = uniform_mesh((8.0,) * 3, (4, 4, 4), degree=5)
    ledger = FlopLedger()
    op = KSOperator(mesh, ledger=ledger)
    op.set_potential(np.zeros(mesh.nnodes))
    b = op.spectral_upper_bound()
    X = np.random.default_rng(0).standard_normal((op.n, 64))
    print("    measured host-CPU CF throughput (same kernel, GFLOP/s):")
    for bf in (4, 16, 64):
        # an untimed pass first: the first call at a block size allocates
        chebyshev_filter(op, X, 8, 1.0, b, -1.0, block_size=bf)
        ledger.reset()
        t0 = Stopwatch()
        chebyshev_filter(op, X, 8, 1.0, b, -1.0, block_size=bf)
        dt = t0.elapsed()
        flops = ledger.total_counted_flops()
        print(f"      B_f={bf:3d}: {flops / dt / 1e9:8.2f} GFLOP/s")


def fig5_summit_optimizations() -> None:
    print("\n=== Fig 5: Summit strong scaling, baseline vs optimized (YbCd)")
    wl = PAPER_WORKLOADS["YbCdQC"]
    base = ModelOptions(mixed_precision=False, async_overlap=False)
    opt = ModelOptions(mixed_precision=True, async_overlap=True, use_rccl=True)
    print(f"    {'nodes':>6} {'baseline':>10} {'optimized':>10} {'gain':>6}")
    for nodes in (240, 480, 960, 1920):
        tb = scf_breakdown(wl, SUMMIT, nodes, base).wall_time
        to = scf_breakdown(wl, SUMMIT, nodes, opt).wall_time
        print(f"    {nodes:>6} {tb:>9.1f}s {to:>9.1f}s {tb / to:>5.2f}x")
    print("    paper: 1.8x at the minimum walltime; 36% -> 54% efficiency")


def fig7_invdft_scaling() -> None:
    print("\n=== Fig 7: invDFT strong scaling (ortho-benzyne, Perlmutter)")
    from repro.hpc.runtime import invdft_iteration_time

    wl = PAPER_WORKLOADS["OrthoBenzyne"]
    print(f"    {'nodes':>6} {'s/iteration':>12} {'speedup':>8}")
    t4 = None
    for nodes in (4, 8, 16, 32):
        t_iter = invdft_iteration_time(
            wl, PERLMUTTER, nodes, opts=ModelOptions(use_rccl=True)
        )
        t4 = t4 or t_iter
        print(f"    {nodes:>6} {t_iter:>11.1f}s {t4 / t_iter:>7.2f}x")
    print("    paper: 104 s -> 20 s from 4 to 32 nodes (5.2x)")


def fig8_dftfe_scaling() -> None:
    print("\n=== Fig 8: DFT-FE-MLXC strong scaling (YbCd, 75.07M DoF)")
    wl = PAPER_WORKLOADS["YbCdQC"]
    for machine, nodes_list in (
        (PERLMUTTER, [140, 280, 560, 1120]),
        (FRONTIER, [120, 240, 480, 960]),
    ):
        curve = strong_scaling(
            wl, machine, nodes_list, ModelOptions(use_rccl=machine is PERLMUTTER)
        )
        rows = "  ".join(f"{n}n:{t:6.1f}s({e:4.0%})" for n, t, e in curve)
        print(f"    {machine.name:<11} {rows}")
    print("    paper: ~80% at 240 Frontier / 560 Perlmutter nodes; ~25 s at 1120")


def table1_sota() -> None:
    print("\n=== Table 1 (our rows): DFT-FE-MLXC on Frontier")
    opts = ModelOptions(optimal_routing=False)
    for name, nodes in (("TwinDislocMgY(A)", 2400), ("TwinDislocMgY(C)", 8000)):
        wl = PAPER_WORKLOADS[name]
        m = scf_breakdown(wl, FRONTIER, nodes, opts)
        print(
            f"    {name:<18} ({wl.natoms} atoms, {wl.electrons_per_kpt} e-)x"
            f"{wl.n_kpoints}k  {nodes * 8} GCDs: {m.wall_time / 60:4.1f} min/SCF, "
            f"{m.sustained_pflops:6.1f} PFLOPS ({m.peak_fraction:.1%})"
        )
    print("    paper: 3.7 min/SCF, 226.3 PFLOPS (49.3%); 8.6 min/SCF, 659.7 (43.1%)")


def table2_tts() -> None:
    print("\n=== Table 2: YbCd time-to-solution, 1,120 Perlmutter nodes")
    tts = time_to_solution(
        PAPER_WORKLOADS["YbCdQC"], PERLMUTTER, 1120, n_scf=34,
        opts=ModelOptions(use_rccl=True),
    )
    print(
        f"    init {tts['initialization']:5.0f} s | SCF {tts['total_scf']:6.0f} s "
        f"({tts['n_scf']} steps) | total {tts['total']:6.0f} s"
    )
    print("    paper:  69 s | 2023 s (34 steps) | 2092 s")


def table3_sustained() -> None:
    print("\n=== Table 3: per-kernel breakdown (model | paper)")
    opts = ModelOptions(optimal_routing=False)
    paper_c = {
        "CF": (135.4, 57809.5), "CholGS-S": (79.3, 54428.9),
        "CholGS-CI": (8.8, None), "CholGS-O": (49.6, 54428.9),
        "RR-P": (66.7, 61035.7), "RR-D": (22.3, None),
        "RR-SR": (93.5, 108857.9), "DC": (4.3, 2302.5),
        "DH+EP+Others": (53.8, None),
    }
    m = scf_breakdown(PAPER_WORKLOADS["TwinDislocMgY(C)"], FRONTIER, 8000, opts)
    print("    TwinDislocMgY(C), 8000 Frontier nodes, 619,124 e- supercell")
    for name, sec, pf, pflops in m.table_rows():
        ps, ppf = paper_c[name]
        pf_str = f"{pf:9.1f}" if pf else "        -"
        ppf_str = f"{ppf:9.1f}" if ppf else "        -"
        print(f"    {name:<14} {sec:7.1f}s {pf_str} PF | {ps:7.1f}s {ppf_str} PF")
    print(
        f"    TOTAL: {m.wall_time:.1f}s, {m.sustained_pflops:.1f} PFLOPS "
        f"({m.peak_fraction:.1%}) | paper 513.7s, 659.7 PFLOPS (43.1%)"
    )


def virtual_cluster_demo() -> None:
    print("\n=== virtual cluster: the distributed algorithm, executed for real")
    mesh = uniform_mesh((6.0,) * 3, (4, 4, 4), degree=4)
    x = np.random.default_rng(1).normal(size=(mesh.nnodes, 8))
    for p, fp32 in ((8, False), (8, True)):
        vc = VirtualCluster(mesh, p, fp32_halo=fp32)
        vc.apply_stiffness(x)
        print(
            f"    P={p} fp32_halo={fp32!s:<5} p2p bytes/apply = "
            f"{vc.traffic.p2p_bytes:,.0f} "
            f"({vc.traffic.p2p_messages} messages)"
        )
    print("    -> FP32 halo halves the boundary traffic (paper Sec 5.4.2)")


def main() -> None:
    fig4_cf_block_size()
    fig5_summit_optimizations()
    fig7_invdft_scaling()
    fig8_dftfe_scaling()
    table1_sota()
    table2_tts()
    table3_sustained()
    virtual_cluster_demo()


if __name__ == "__main__":
    main()
