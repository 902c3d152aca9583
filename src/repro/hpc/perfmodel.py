"""Roofline + communication performance model for the exascale kernels.

This module maps the FLOP counts of Sec 6.3 to modeled wall-clock times on
the machines of :mod:`repro.hpc.machine`, reproducing the *structure* of the
paper's performance results: the block-size dependence of the Chebyshev
filter (Fig 4), the mixed-precision/asynchrony gains (Fig 5), strong-scaling
saturation (Figs 7, 8) and the per-kernel sustained-PFLOPS breakdown
(Table 3).  The algorithm itself runs for real in :mod:`repro.core`; only
the time mapping at 10^3-10^5 GPUs is modeled — that is the documented
substitution for the Frontier/Summit/Perlmutter hardware.

Model ingredients:

* **CF** — batched cell-GEMM compute with a saturating block-size
  efficiency (arithmetic intensity grows with B_f) whose asymptote falls
  with the machine's FLOP/byte ratio (Summit-vs-Crusher, Fig 4), the A100
  FP64 tensor-core multiplier, plus FP32-halved point-to-point halo
  exchange (overlapped when GPU-aware MPI is available);
* **CholGS / RR GEMM steps** — large-GEMM efficiency with an FP32
  off-diagonal fraction running at twice the FP64 rate (this is how the
  paper's >100% "efficiencies" arise), plus N x N allreduce collectives
  that can only be overlapped when a stream-tagged collective library
  (NCCL/RCCL) is usable;
* **CholGS-CI / RR-D** — ScaLAPACK-class O(N^3) solves that are latency
  rather than FLOP bound, fitted as a_ci (N/1000)^1.5 seconds;
* **the >1000-node Frontier routing penalty** (paper Sec 7.2) degrading
  point-to-point and collective bandwidth when optimal GPU-aware routing is
  unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machine import MachineSpec

__all__ = [
    "KernelTime",
    "MeasuredOverlap",
    "ModelOptions",
    "calibrate_overlap",
    "cf_block_efficiency",
    "kernel_times",
    "measured_overlap_residual",
]


@dataclass
class ModelOptions:
    """Execution-strategy toggles studied in the paper."""

    mixed_precision: bool = True
    async_overlap: bool = True
    gpu_aware_mpi: bool = True
    use_rccl: bool = False  #: unstable >1000 Frontier nodes (paper Sec 5.4.4)
    optimal_routing: bool = True  #: False reproduces the >1000-node penalty
    use_tensor_cores: bool = True  #: A100 FP64 tensor cores
    block_size: int = 250  #: wavefunction block B_f
    fp32_fraction: float = 0.8  #: off-diagonal share of CholGS/RR work
    #: residual cost of the hidden phase when compute/comm overlap is on:
    #: t = max(compute, comm) + overlap_residual * min(compute, comm).
    #: 0 is perfect hiding; 1 degenerates to the serial sum.  The default
    #: is the fitted paper value; :func:`calibrate_overlap` replaces it
    #: with the value *measured* on this host by the process-rank backend
    #: (see ``benchmarks/bench_procranks.py``).
    overlap_residual: float = 0.08


@dataclass
class KernelTime:
    """Modeled timing of one kernel."""

    name: str
    flops: float  #: counted FLOPs (0 for uncounted kernels)
    seconds: float

    def pflops(self) -> float:
        return self.flops / self.seconds / 1e15 if self.seconds > 0 else 0.0


#: block size at which batched-GEMM efficiency reaches half its asymptote
_BF_HALF = 55.0
#: roofline coupling of CF efficiency to the machine FLOP/byte ratio
_CF_ROOFLINE = 0.030
#: fitted ScaLAPACK-class dense-solve constants (seconds at N=1000)
_CI_SECONDS = 0.0294
_RRD_OVER_CI = 2.5
#: fitted DH+EP+Others overhead constant (seconds per 1000 states)
_OTHERS_SECONDS = 0.0215
#: DC kernel: nodal-to-quadrature interpolation GEMM share and efficiency
_DC_FLOP_FACTOR = 0.91
_DC_EFFICIENCY = 0.37
#: CF efficiency penalty when optimal GPU-aware routing is unavailable
#: (paper Sec 7.2: ~40% -> ~30% for the large TwinDislocMgY runs)
_CF_ROUTING_PENALTY = 0.72


def cf_block_efficiency(
    machine: MachineSpec, block_size: int, use_tensor_cores: bool = True
) -> float:
    """CF kernel efficiency vs wavefunction block size (Fig 4 model).

    Saturating B_f dependence from batched-GEMM arithmetic intensity, an
    asymptote set by the machine's FLOP/byte ratio (the Summit-vs-Crusher
    1.4x drop the paper correlates with the 1.7x peak/HBM ratio), and the
    A100 FP64 tensor-core multiplier (>100% of vector peak is possible;
    the paper observes 85.7%).
    """
    ratio = machine.flops_per_byte_ratio
    eff_asym = machine.cf_base_efficiency / (1.0 + _CF_ROOFLINE * ratio)
    eff = eff_asym * block_size / (block_size + _BF_HALF)
    if use_tensor_cores and machine.fp64_tensor_multiplier > 1.0:
        eff *= machine.fp64_tensor_multiplier
    return float(eff)


def _allreduce_time(
    machine: MachineSpec, bytes_total: float, nodes: float, opts: ModelOptions
) -> float:
    """Ring-style allreduce across ``nodes`` of a shared buffer."""
    if nodes <= 1:
        return 0.0
    bw = machine.allreduce_bw_rccl if opts.use_rccl else machine.allreduce_bw_mpich
    penalty = 2.2 if (nodes > 1000 and not opts.optimal_routing) else 1.0
    t = 2.0 * bytes_total / (bw * 1e9) * (nodes - 1) / nodes
    return penalty * (t + machine.net_latency * np.log2(nodes))


def _p2p_halo_time(
    machine: MachineSpec,
    bytes_per_node: float,
    nodes: float,
    opts: ModelOptions,
    fp32: bool,
) -> float:
    """One FE partition-boundary exchange (per node costs)."""
    if nodes <= 1:
        return 0.0
    vol = bytes_per_node * (0.5 if fp32 else 1.0)
    speedup = 1.5 if opts.gpu_aware_mpi else 1.0
    penalty = 1.9 if (nodes > 1000 and not opts.optimal_routing) else 1.0
    bw = machine.node_injection_bw * 1e9 * speedup
    return penalty * (vol / bw + 26.0 * machine.net_latency)


def _gemm_rate(
    machine: MachineSpec, gpus: float, opts: ModelOptions, small_scale: bool
) -> float:
    """Achieved FLOPS of the O(M N^2) GEMM steps incl. FP32 mixing.

    At moderate scale (instance <= 1000 nodes) the blocked pipelines keep
    essentially all off-diagonal work in FP32 (the paper's Table 3 shows
    >120% of FP64 peak for TwinDislocMgY(A)); at the largest runs the
    effective FP32 share drops (71-76% of peak for TwinDislocMgY(C)).
    """
    peak = gpus * machine.fp64_peak_per_gpu * 1e12
    base = peak * machine.gemm_efficiency
    if not opts.mixed_precision:
        return base
    f32 = 1.0 if small_scale else opts.fp32_fraction
    # FP32 portion at twice the FP64 rate
    return base / ((1.0 - f32) + f32 / 2.0)


def _overlap(
    compute: float, comm: float, enabled: bool, residual: float = 0.08
) -> float:
    if enabled:
        return max(compute, comm) + residual * min(compute, comm)
    return compute + comm


def measured_overlap_residual(
    compute_s: float, comm_s: float, overlapped_s: float
) -> float:
    """Invert the overlap model from measured phase times.

    Given the compute-only time, the full (unhidden) communication time and
    the measured overlapped wall time of the same work, solve
    ``overlapped = max(compute, comm) + r * min(compute, comm)`` for ``r``
    and clip to [0, 1] (a negative solution means the overlapped run beat
    perfect hiding — timer noise; > 1 means overlap made things worse than
    serial, which the model caps at the serial sum).
    """
    lo = min(compute_s, comm_s)
    if lo <= 0.0:
        return 0.0
    r = (overlapped_s - max(compute_s, comm_s)) / lo
    return float(np.clip(r, 0.0, 1.0))


@dataclass(frozen=True)
class MeasuredOverlap:
    """Overlap calibration extracted from process-rank phase reports."""

    compute_s: float  #: per-apply per-rank compute (boundary + interior)
    comm_s: float  #: per-apply per-rank unhidden halo exchange cost
    overlapped_s: float  #: per-apply per-rank wall with overlap enabled
    residual: float  #: fitted ``overlap_residual`` for :class:`ModelOptions`


def calibrate_overlap(phase_on: dict, phase_off: dict) -> MeasuredOverlap:
    """Fit ``ModelOptions.overlap_residual`` from two measured phase reports.

    ``phase_on`` / ``phase_off`` are
    :meth:`repro.hpc.procranks.ProcRankCluster.phase_report` dicts from an
    overlap-enabled and overlap-disabled run of the same workload.  The
    overlap-off run exposes the full communication cost (halo wait + copy-in
    happen after all compute), so compute and comm separate cleanly there;
    the overlap-on wall then pins the residual.  All times are normalised
    per apply per rank so the two runs need not have equal apply counts.
    """
    def _norm(rep: dict, key: str) -> float:
        denom = max(rep["applies"], 1) * max(rep["nranks"], 1)
        return float(rep[key]) / denom

    compute = _norm(phase_off, "boundary_s") + _norm(phase_off, "interior_s")
    comm = _norm(phase_off, "halo_wait_s") + _norm(phase_off, "recv_s")
    overlapped = _norm(phase_on, "apply_total_s")
    return MeasuredOverlap(
        compute_s=compute,
        comm_s=comm,
        overlapped_s=overlapped,
        residual=measured_overlap_residual(compute, comm, overlapped),
    )


def kernel_times(
    machine: MachineSpec,
    nodes: int,
    M: float,
    N: float,
    n_instances: int,
    npc: int,
    cheb_degree: int,
    complex_arith: bool,
    opts: ModelOptions | None = None,
) -> list[KernelTime]:
    """Model one SCF iteration's kernel times and (aggregate) FLOPs.

    ``M`` FE DoF, ``N`` wavefunctions per eigensolver instance,
    ``n_instances`` concurrent k-point groups sharing the machine,
    ``npc = (p+1)^3`` the FE-cell matrix size.  FLOPs follow the Sec 6.3
    conventions (complex factor 4, alpha in {1,2}) and are aggregated over
    instances; each instance runs on ``nodes / n_instances`` nodes.
    """
    opts = opts or ModelOptions()
    cx = 4.0 if complex_arith else 1.0
    word = 16.0 if complex_arith else 8.0
    nodes_inst = max(nodes / n_instances, 1.0)
    gpus_inst = nodes_inst * machine.gpus_per_node
    p = int(round(npc ** (1.0 / 3.0))) - 1
    ncells = M / max(p, 1) ** 3
    peak_inst = gpus_inst * machine.fp64_peak_per_gpu * 1e12
    # collectives can only be overlapped with a stream-tagged library
    coll_overlap = opts.async_overlap and opts.use_rccl
    p2p_overlap = opts.async_overlap and opts.gpu_aware_mpi

    out: list[KernelTime] = []

    # ---- CF ----------------------------------------------------------------
    hx_flops = 2.0 * cx * npc * npc * ncells * N  # one Hamiltonian apply/instance
    cf_flops = cheb_degree * (hx_flops + 3.0 * cx * M * N)
    eff_cf = cf_block_efficiency(machine, opts.block_size, opts.use_tensor_cores)
    if not opts.optimal_routing:
        eff_cf *= _CF_ROUTING_PENALTY
    cf_compute = cf_flops / (peak_inst * eff_cf)
    m_loc = M / gpus_inst
    halo_bytes_node = (
        6.0 * m_loc ** (2.0 / 3.0) * opts.block_size * word * machine.gpus_per_node
    )
    n_msgs = cheb_degree * max(N / opts.block_size, 1.0)
    cf_comm = n_msgs * _p2p_halo_time(
        machine, halo_bytes_node, nodes_inst, opts, fp32=opts.mixed_precision
    )
    out.append(
        KernelTime(
            "CF", cf_flops * n_instances,
            _overlap(cf_compute, cf_comm, p2p_overlap, opts.overlap_residual),
        )
    )

    # ---- CholGS ------------------------------------------------------------
    gemm_rate = _gemm_rate(machine, gpus_inst, opts, small_scale=nodes_inst <= 1000)
    s_flops = cx * N * M * N  # alpha = 1 (Hermiticity exploited)
    s_comm = _allreduce_time(machine, N * N * word, nodes_inst, opts)
    out.append(
        KernelTime(
            "CholGS-S", s_flops * n_instances,
            _overlap(s_flops / gemm_rate, s_comm, coll_overlap, opts.overlap_residual),
        )
    )
    ci_time = _CI_SECONDS * (N / 1000.0) ** 1.5
    out.append(KernelTime("CholGS-CI", 0.0, ci_time))
    # triangular rotation X L^{-H}: alpha = 1 (half of a square GEMM)
    o_flops = cx * N * M * N
    out.append(KernelTime("CholGS-O", o_flops * n_instances, o_flops / gemm_rate))

    # ---- RR ----------------------------------------------------------------
    p_flops = cx * N * M * N + hx_flops
    p_compute = (cx * N * M * N) / gemm_rate + hx_flops / (peak_inst * eff_cf)
    p_comm = _allreduce_time(machine, N * N * word, nodes_inst, opts)
    out.append(
        KernelTime(
            "RR-P", p_flops * n_instances,
            _overlap(p_compute, p_comm, coll_overlap, opts.overlap_residual),
        )
    )
    out.append(KernelTime("RR-D", 0.0, _RRD_OVER_CI * ci_time))
    sr_flops = 2.0 * cx * N * M * N
    out.append(KernelTime("RR-SR", sr_flops * n_instances, sr_flops / gemm_rate))

    # ---- DC: nodal-to-quadrature interpolation GEMM + |psi|^2 reduction ----
    dc_flops = _DC_FLOP_FACTOR * hx_flops * n_instances
    dc_time = dc_flops / (
        nodes * machine.gpus_per_node * machine.fp64_peak_per_gpu * 1e12 * _DC_EFFICIENCY
    )
    out.append(KernelTime("DC", dc_flops, dc_time))

    # ---- DH + EP + Others ----------------------------------------------------
    others = _OTHERS_SECONDS * cx * (N / 1000.0) * np.log2(max(nodes, 2))
    out.append(KernelTime("DH+EP+Others", 0.0, others))
    return out
