"""reproscope — hierarchical tracing + metrics for the DFT-FE-MLXC pipeline.

The observability subsystem of this repository: a zero-dependency,
thread-safe span tracer whose span names follow the paper's Table 3 kernel
labels (:mod:`repro.obs.kernels`), counters for FLOPs / bytes moved /
halo-exchange volume fed by the HPC substrate, and pluggable sinks
(:mod:`repro.obs.sinks`) — an in-memory aggregator behind the CLI's
``--profile`` breakdowns and a Chrome-trace-event exporter viewable in
Perfetto.  One process, one tracer: the process rank
backend's forked workers have none, and their measured phases reach the
open span as the parent's ``proc_*_s`` counters on every apply.

Quick use::

    from repro.obs import trace_region, get_tracer, InMemoryAggregator

    agg = get_tracer().add_sink(InMemoryAggregator())
    with trace_region("SCF-iteration", iteration=1):
        with trace_region("CF"):
            ...
    print(render_tree(agg))

Kill switch: ``REPRO_TRACE=0`` in the environment (or
:func:`set_enabled`\\ ``(False)``) turns every span into a near-zero-cost
no-op while keeping ledger/history timing functional.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "kernels": (
            "CHFES_CHILDREN", "PAPER_KERNELS", "SCF_ITERATION", "TABLE3_ORDER",
            "paper_label",
        ),
        "report": ("kernel_totals", "model_vs_measured", "render_tree"),
        "sinks": ("AggregatedNode", "ChromeTraceSink", "InMemoryAggregator"),
        "tracer": (
            "Span", "Stopwatch", "Tracer", "add_counter", "add_event",
            "current_span", "get_tracer", "is_enabled", "kernel_region", "set_enabled",
            "trace_region", "traced",
        ),
    },
)
