"""reproscope reporting: breakdown trees and model-vs-measured tables.

:func:`render_tree` turns an :class:`~repro.obs.sinks.InMemoryAggregator`
into the nested per-kernel wall-time breakdown printed by
``python -m repro scf <molecule> --profile`` — the measured analogue of the
paper's Table 3 rows, with per-path call counts, total/self seconds and
GFLOP counters where the kernels recorded them.

:func:`model_vs_measured` lines the same aggregate up against the modeled
:class:`~repro.hpc.perfmodel.KernelTime` rows (imported lazily; this module
stays stdlib-only until a model is actually passed in).
"""

from __future__ import annotations

from typing import Any, Sequence

from .kernels import paper_label
from .sinks import InMemoryAggregator

__all__ = ["kernel_totals", "model_vs_measured", "render_tree"]


def _format_counters(counters: dict[str, float]) -> str:
    flops = counters.get("flops_fp64", 0.0) + counters.get("flops_fp32", 0.0)
    parts: list[str] = []
    if flops:
        share = counters.get("flops_fp32", 0.0) / flops
        parts.append(f"{flops / 1e9:9.3f} GFLOP")
        if share:
            parts.append(f"{share:4.0%} fp32")
    if counters.get("halo_bytes"):
        parts.append(f"{counters['halo_bytes'] / 1e6:8.2f} MB halo")
    if counters.get("iterations"):
        parts.append(f"{counters['iterations']:5.0f} its")
    return "  ".join(parts)


def render_tree(
    agg: InMemoryAggregator,
    min_seconds: float = 0.0,
    title: str | None = None,
) -> str:
    """Render the aggregated span tree as an indented breakdown table.

    Rows are tree paths (indentation = depth); ``min_seconds`` prunes
    noise.  The per-SCF kernels keep the paper's labels, so the output
    reads like a nested Table 3.
    """
    nodes = [n for n in agg.nodes() if n.seconds >= min_seconds]
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(f"{'region':<42} {'calls':>6} {'total s':>10} {'self s':>10}")
    for node in nodes:
        label = "  " * node.depth + node.name
        extra = _format_counters(node.counters)
        lines.append(
            f"{label:<42} {node.calls:>6d} {node.seconds:>10.4f} "
            f"{node.self_seconds:>10.4f}"
            + (f"   {extra}" if extra else "")
        )
    return "\n".join(lines)


def kernel_totals(agg: InMemoryAggregator) -> dict[str, float]:
    """Measured seconds per paper kernel label (``Others`` folds overhead).

    Structural spans (``SCF-iteration``, ``ChFES``, root wrappers) are
    skipped — only leaf kernel labels accumulate, so the totals partition
    the instrumented time without double counting.
    """
    totals: dict[str, float] = {}
    for node in agg.nodes():
        label = paper_label(node.name)
        if label is not None:
            totals[label] = totals.get(label, 0.0) + node.seconds
    return totals


def model_vs_measured(
    kernels: Sequence[Any],
    agg: InMemoryAggregator,
) -> list[dict[str, float | str]]:
    """Join modeled ``KernelTime`` rows with measured kernel seconds.

    ``kernels`` is a sequence of objects with ``name``/``seconds``/``flops``
    (duck-typed so :mod:`repro.hpc.perfmodel` need not be imported here).
    The paper's composite ``DH+EP+Others`` row is matched against the sum
    of the measured ``DH``, ``EP`` and ``Others`` buckets.  Returns one
    dict per modeled kernel: name, modeled seconds, measured seconds (0.0
    when the region never ran) and their ratio.

    ``modeled_flops`` is the paper's model count — for CF the dense
    ``(p+1)^3``-square cell GEMM, complex factor 4
    (:func:`repro.hpc.flops.chebyshev_filter_flops`) — on every mesh.  The
    measured side's FLOP counters are the stiffness-product GEMM FLOPs of
    whichever engine ran (in process :meth:`repro.fem.fdm.AxisKinetic.flops`,
    three axis GEMMs; on ranks
    :meth:`repro.fem.assembly.CellStiffness.gemm_flops`), so the two differ
    by design wherever the kernel does less than the model.
    """
    measured = kernel_totals(agg)
    rows: list[dict[str, float | str]] = []
    for k in kernels:
        name = str(k.name)
        if name == "DH+EP+Others":
            got = sum(measured.get(piece, 0.0) for piece in ("DH", "EP", "Others"))
        else:
            got = measured.get(name, 0.0)
        rows.append(
            {
                "kernel": name,
                "modeled_s": float(k.seconds),
                "measured_s": got,
                "measured_over_modeled": got / k.seconds if k.seconds > 0 else 0.0,
                "modeled_flops": float(getattr(k, "flops", 0.0)),
            }
        )
    return rows
