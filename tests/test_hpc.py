"""HPC substrate: FLOP ledger, perf model calibration, virtual cluster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.assembly import CellStiffness
from repro.fem.mesh import uniform_mesh
from repro.fem.partition import Partition, process_grid
from repro.hpc.cluster import VirtualCluster
from repro.hpc.flops import (
    FlopLedger,
    chebyshev_filter_flops,
    gemm_flops,
    projected_step_flops,
)
from repro.hpc.machine import CRUSHER, FRONTIER, PERLMUTTER, SUMMIT
from repro.hpc.perfmodel import ModelOptions, cf_block_efficiency
from repro.hpc.runtime import (
    PAPER_WORKLOADS,
    scf_breakdown,
    strong_scaling,
    time_to_solution,
)


# ----- FLOP accounting --------------------------------------------------------
def test_gemm_flops_complex_factor():
    assert gemm_flops(10, 20, 30) == 2 * 10 * 20 * 30
    assert gemm_flops(10, 20, 30, complex_arith=True) == 8 * 10 * 20 * 30


def test_projected_step_flops_alpha():
    f1 = projected_step_flops(100, 10, hermitian=True)
    f2 = projected_step_flops(100, 10, hermitian=False)
    assert f2 == 2 * f1


@settings(max_examples=15, deadline=None)
@given(
    ncells=st.integers(10, 1000),
    nvec=st.integers(1, 500),
    m=st.integers(1, 40),
)
def test_cf_flops_linear_scaling(ncells, nvec, m):
    """Property: CF FLOPs are linear in cells, wavefunctions and degree."""
    base = chebyshev_filter_flops(ncells, 125, nvec, m)
    assert np.isclose(chebyshev_filter_flops(2 * ncells, 125, nvec, m), 2 * base)
    assert np.isclose(chebyshev_filter_flops(ncells, 125, 2 * nvec, m), 2 * base)
    assert np.isclose(chebyshev_filter_flops(ncells, 125, nvec, 2 * m), 2 * base)


def test_ledger_mixed_precision_tracking():
    led = FlopLedger()
    led.add("CF", 100.0)
    led.add("CF", 50.0, precision="fp32")
    assert led["CF"].flops_total == 150.0
    assert led["CF"].flops_fp32 == 50.0
    led.add("RR-D", 10.0)
    assert led.total_counted_flops() == 150.0  # RR-D excluded (paper Sec 6.3)
    with pytest.raises(ValueError):
        led.add("CF", 1.0, precision="fp16")
    assert "CF" in led.summary()


# ----- machine/perf model ------------------------------------------------------
def test_machine_peaks_match_paper():
    """Table 3 header: 2400/6000/8000 Frontier nodes = 458.9/1147.2/1529.6 PF."""
    assert np.isclose(FRONTIER.system_peak_pflops(2400), 458.9, rtol=1e-3)
    assert np.isclose(FRONTIER.system_peak_pflops(6000), 1147.2, rtol=1e-3)
    assert np.isclose(FRONTIER.system_peak_pflops(8000), 1529.6, rtol=1e-3)


def test_crusher_summit_flop_byte_ratio():
    """Paper Sec 5.4.1: Crusher/Summit peak-to-bandwidth ratio ~1.7x."""
    ratio = CRUSHER.flops_per_byte_ratio / SUMMIT.flops_per_byte_ratio
    assert 1.5 < ratio < 1.9


def test_cf_efficiency_fig4_shape():
    """Fig 4: efficiency grows with B_f; Summit > Crusher; Perlmutter highest."""
    for m in (SUMMIT, CRUSHER, PERLMUTTER):
        effs = [cf_block_efficiency(m, b) for b in (100, 200, 300, 400, 500)]
        assert all(e2 > e1 for e1, e2 in zip(effs, effs[1:]))
    e_s = cf_block_efficiency(SUMMIT, 500)
    e_c = cf_block_efficiency(CRUSHER, 500)
    e_p = cf_block_efficiency(PERLMUTTER, 500)
    assert np.isclose(e_s, 0.563, atol=0.06)  # paper: 56.3%
    assert np.isclose(e_c, 0.411, atol=0.06)  # paper: 41.1%
    assert np.isclose(e_p, 0.857, atol=0.09)  # paper: 85.7%
    assert 1.2 < e_s / e_c < 1.6  # the paper's 1.4x drop


def test_table3_total_calibration():
    """Modeled totals within ~15% of Table 3 for all three systems."""
    opts = ModelOptions(optimal_routing=False)
    paper = {
        "TwinDislocMgY(A)": (2400, 223.0, 50456.7, 226.3),
        "TwinDislocMgY(B)": (6000, 499.4, 254147.5, 508.9),
        "TwinDislocMgY(C)": (8000, 513.7, 338863.4, 659.7),
    }
    for name, (nodes, t_p, pf_p, pflops_p) in paper.items():
        m = scf_breakdown(PAPER_WORKLOADS[name], FRONTIER, nodes, opts)
        assert abs(m.wall_time - t_p) / t_p < 0.15, name
        assert abs(m.counted_pflop - pf_p) / pf_p < 0.10, name
        assert abs(m.sustained_pflops - pflops_p) / pflops_p < 0.30, name


def test_table3_headline_peak_fraction():
    """TwinDislocMgY(C): ~43% of FP64 peak on 8000 nodes."""
    opts = ModelOptions(optimal_routing=False)
    m = scf_breakdown(PAPER_WORKLOADS["TwinDislocMgY(C)"], FRONTIER, 8000, opts)
    assert 0.35 < m.peak_fraction < 0.55


def test_mixed_precision_and_async_speedup_fig5():
    """Fig 5: optimizations give a substantial walltime reduction."""
    wl = PAPER_WORKLOADS["YbCdQC"]
    baseline = ModelOptions(
        mixed_precision=False, async_overlap=False, use_rccl=False
    )
    optimized = ModelOptions(mixed_precision=True, async_overlap=True, use_rccl=True)
    for nodes in (240, 960, 1920):
        t_base = scf_breakdown(wl, SUMMIT, nodes, baseline).wall_time
        t_opt = scf_breakdown(wl, SUMMIT, nodes, optimized).wall_time
        assert t_opt < t_base / 1.3, nodes  # paper: 1.8x at the minimum walltime


def test_strong_scaling_efficiency_decreases_fig8():
    """Fig 8 shape: walltime drops monotonically; useful efficiency at 8x."""
    wl = PAPER_WORKLOADS["YbCdQC"]
    curve = strong_scaling(
        wl, PERLMUTTER, [140, 280, 560, 1120], ModelOptions(use_rccl=True)
    )
    times = [t for _, t, _ in curve]
    effs = [e for _, _, e in curve]
    assert effs[0] == 1.0
    assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))
    assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(effs, effs[1:]))
    assert effs[2] > 0.5  # paper: ~80% at the 560-node sweet spot
    assert effs[-1] > 0.3  # paper: ~60% at 16.8K DoF/GPU
    assert 15.0 < times[-1] < 40.0  # paper: ~25 s/SCF at 1120 nodes


def test_ybcd_fig8_walltime_range():
    """Fig 8: YbCd per-SCF walltime ~25 s on 1120 Perlmutter nodes."""
    wl = PAPER_WORKLOADS["YbCdQC"]
    m = scf_breakdown(wl, PERLMUTTER, 1120, ModelOptions(use_rccl=True))
    assert 10.0 < m.wall_time < 60.0


def test_time_to_solution_table2():
    """Table 2: ~2092 s total for 34 SCF steps on 1120 Perlmutter nodes."""
    wl = PAPER_WORKLOADS["YbCdQC"]
    tts = time_to_solution(wl, PERLMUTTER, 1120, n_scf=34, opts=ModelOptions(use_rccl=True))
    assert tts["total"] == tts["initialization"] + tts["total_scf"]
    assert 600 < tts["total"] < 4000  # same order as the paper's 2092 s
    assert tts["initialization"] < 0.2 * tts["total_scf"]


# ----- partition / virtual cluster ---------------------------------------------
def test_process_grid_covers_ranks():
    assert np.prod(process_grid(8, (4, 4, 4))) == 8
    assert np.prod(process_grid(6, (6, 2, 2))) == 6
    # grid follows the aspect ratio
    g = process_grid(4, (8, 1, 1))
    assert g[0] == 4


def test_partition_invariance_of_distributed_apply():
    mesh = uniform_mesh((4.0, 4.0, 4.0), (3, 3, 3), degree=3)
    x = np.random.default_rng(0).normal(size=(mesh.nnodes, 3))
    ref = CellStiffness(mesh).apply_full(x)
    for p in (2, 4, 9):
        vc = VirtualCluster(mesh, p)
        assert np.allclose(vc.apply_stiffness(x), ref, atol=1e-11)


def test_fp32_halo_error_bounded_and_traffic_halved():
    mesh = uniform_mesh((4.0, 4.0, 4.0), (3, 3, 3), degree=3)
    x = np.random.default_rng(1).normal(size=(mesh.nnodes, 2))
    ref = CellStiffness(mesh).apply_full(x)
    vc64 = VirtualCluster(mesh, 4, fp32_halo=False)
    vc32 = VirtualCluster(mesh, 4, fp32_halo=True)
    y64 = vc64.apply_stiffness(x)
    y32 = vc32.apply_stiffness(x)
    assert np.allclose(y64, ref, atol=1e-11)
    rel = np.abs(y32 - ref).max() / np.abs(ref).max()
    assert 0 < rel < 1e-6  # fp32 halo keeps ~single precision accuracy
    assert vc32.traffic.p2p_bytes == pytest.approx(0.5 * vc64.traffic.p2p_bytes)


def test_cluster_halo_fraction_shrinks_with_mesh_size():
    small = Partition(uniform_mesh((2.0,) * 3, (2, 2, 2), degree=2), 2)
    large = Partition(uniform_mesh((2.0,) * 3, (6, 6, 6), degree=2), 2)
    assert large.halo_fraction() < small.halo_fraction()


def test_cluster_complex_bloch_path():
    mesh = uniform_mesh(
        (3.0, 3.0, 3.0), (2, 2, 2), degree=2, pbc=(True, False, False)
    )
    stiff = CellStiffness(mesh, kfrac=(0.25, 0.0, 0.0))
    x = (
        np.random.default_rng(2).normal(size=(mesh.nnodes, 2))
        + 1j * np.random.default_rng(3).normal(size=(mesh.nnodes, 2))
    )
    ref = stiff.apply_full(x)
    vc = VirtualCluster(mesh, 4, kfrac=(0.25, 0.0, 0.0))
    assert np.allclose(vc.apply_stiffness(x), ref, atol=1e-11)


def test_allreduce_metering():
    mesh = uniform_mesh((2.0,) * 3, (2, 2, 2), degree=2)
    vc = VirtualCluster(mesh, 4)
    a = np.zeros((10, 10))
    vc.allreduce(a)
    assert vc.traffic.allreduce_calls == 1
    assert vc.traffic.allreduce_bytes > 0


def test_fig4_example_measures_the_kernel_it_runs(capsys):
    """``examples/exascale_performance.py``'s Fig. 4 section runs end to end
    and reports a finite throughput for every block size it times."""
    import importlib.util
    import pathlib
    import re

    path = pathlib.Path(__file__).resolve().parents[1] / "examples/exascale_performance.py"
    spec = importlib.util.spec_from_file_location("exascale_performance", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.fig4_cf_block_size()
    rates = re.findall(r"B_f=\s*(\d+):\s*([0-9.]+) GFLOP/s", capsys.readouterr().out)
    assert [int(bf) for bf, _ in rates] == [4, 16, 64]
    assert all(0.0 < float(rate) < 1e4 for _, rate in rates)
