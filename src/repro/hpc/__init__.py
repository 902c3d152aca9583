"""HPC substrate: FLOP accounting, machine models, virtual cluster, perf model."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "cluster": ("TrafficReport", "VirtualCluster"),
        "distributed": ("DistributedKSOperator", "RANK_BACKENDS"),
        "flops": (
            "FlopLedger", "KernelTally", "chebyshev_filter_flops", "gemm_flops",
            "projected_step_flops",
        ),
        "machine": (
            "CRUSHER", "FRONTIER", "MACHINES", "MachineSpec", "PERLMUTTER", "SUMMIT",
        ),
        "perfmodel": (
            "KernelTime", "MeasuredOverlap", "ModelOptions", "calibrate_overlap",
            "cf_block_efficiency", "kernel_times", "measured_overlap_residual",
        ),
        "runtime": (
            "PAPER_WORKLOADS", "ScfModel", "Workload", "scf_breakdown",
            "strong_scaling", "time_to_solution",
        ),
    },
)
