"""FLOP accounting following the paper's measurement methodology (Sec 6.3).

The paper measures FLOPs for the key kernels — CF, CholGS-S, CholGS-O, RR-P,
RR-SR, DC — and *excludes* CholGS-CI, RR-D, Hamiltonian construction and the
electrostatic solve from the FLOP count while still charging their wall time.
:class:`FlopLedger` reproduces this bookkeeping: every kernel records FLOPs
(optionally split by precision) and wall-clock time under a named category.

The module also provides the closed-form lower-bound FLOP formulas used by
the paper for the O(M N^2) dense steps, ``alpha * 4 * N * M * N`` with the
complex factor 4 and ``alpha in {1, 2}`` for Hermitian exploitation.

Timing is delegated to reproscope (:mod:`repro.obs`): :meth:`FlopLedger.
timed` opens a kernel span and charges its duration back to the tally, so a
ledger-instrumented run and its trace agree by construction, and
:meth:`FlopLedger.add` mirrors every FLOP count onto the current span's
counters.  With ``REPRO_TRACE=0`` the ledger still times correctly (the
no-op spans keep their clock reads).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import ContextManager

from repro.obs.tracer import Span, add_counter, kernel_region
from repro.tools import sanitize as _sanitize

__all__ = [
    "FlopLedger",
    "KernelTally",
    "gemm_flops",
    "projected_step_flops",
    "chebyshev_filter_flops",
]

#: kernels the paper excludes from the FLOP count (wall time still charged)
UNCOUNTED_KERNELS = frozenset(
    {"CholGS-CI", "CholGS-QR", "RR-D", "DH", "EP", "Others"}
)


@dataclass
class KernelTally:
    """Accumulated FLOPs/time for a single kernel category."""

    flops_fp64: float = 0.0
    flops_fp32: float = 0.0
    seconds: float = 0.0
    calls: int = 0

    @property
    def flops_total(self) -> float:
        return self.flops_fp64 + self.flops_fp32


class FlopLedger:
    """Per-kernel FLOP and wall-time ledger.

    Mutations are guarded by a lock: serve's slice workers each drive an
    SCF on their own thread, so a ledger shared by two of them is charged
    concurrently.  ``cell_gemm`` holds the stiffness-product GEMM
    FLOPs of whichever engine ran — the axis GEMMs in process
    (:meth:`repro.fem.fdm.AxisKinetic.flops`), the cell GEMMs on ranks and in
    Poisson (:meth:`repro.fem.assembly.CellStiffness.gemm_flops`).
    """

    def __init__(self) -> None:
        self._tally: dict[str, KernelTally] = defaultdict(KernelTally)
        self._lock = threading.Lock()
        self._san_tag = f"FlopLedger:{id(self)}"

    def add(self, kernel: str, flops: float, precision: str = "fp64") -> None:
        if precision not in ("fp64", "fp32"):
            raise ValueError(f"unknown precision {precision!r}")
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                t = self._tally[kernel]
                if precision == "fp64":
                    t.flops_fp64 += flops
                else:
                    t.flops_fp32 += flops
            finally:
                if san is not None:
                    san.write_end(self._san_tag)
        # mirror onto the innermost open reproscope span (no-op untraced);
        # spans are thread-local, so this needs no lock
        add_counter(f"flops_{precision}", flops)

    def charge_seconds(self, kernel: str, seconds: float, calls: int = 1) -> None:
        """Record measured wall time for ``kernel`` (reproscope callback)."""
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                t = self._tally[kernel]
                t.seconds += seconds
                t.calls += calls
            finally:
                if san is not None:
                    san.write_end(self._san_tag)

    def timed(self, kernel: str) -> ContextManager[Span]:
        """Open a reproscope span whose duration is charged to ``kernel``."""
        return kernel_region(kernel, ledger=self)

    def __getitem__(self, kernel: str) -> KernelTally:
        with self._lock:
            return self._tally[kernel]

    def kernels(self) -> list[str]:
        with self._lock:
            return sorted(self._tally)

    def total_counted_flops(self) -> float:
        """Total FLOPs over the kernels the paper counts."""
        with self._lock:
            return sum(
                t.flops_total
                for k, t in self._tally.items()
                if k not in UNCOUNTED_KERNELS
            )

    def total_seconds(self) -> float:
        with self._lock:
            return sum(t.seconds for t in self._tally.values())

    def reset(self) -> None:
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                self._tally.clear()
            finally:
                if san is not None:
                    san.write_end(self._san_tag)

    def snapshot(self) -> dict[str, tuple[float, float, float, int]]:
        """Checkpointable copy of the tally (kernel -> fp64/fp32/sec/calls)."""
        with self._lock:
            return {
                k: (t.flops_fp64, t.flops_fp32, t.seconds, t.calls)
                for k, t in self._tally.items()
            }

    def restore(self, snap: dict[str, tuple[float, float, float, int]]) -> None:
        """Replace the tally with a :meth:`snapshot` (checkpoint resume)."""
        with self._lock:
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag)
            try:
                self._tally.clear()
                for k, (f64, f32, sec, calls) in snap.items():
                    self._tally[k] = KernelTally(
                        flops_fp64=float(f64),
                        flops_fp32=float(f32),
                        seconds=float(sec),
                        calls=int(calls),
                    )
            finally:
                if san is not None:
                    san.write_end(self._san_tag)

    def summary(self) -> str:
        lines = [f"{'kernel':<12} {'GFLOP':>12} {'fp32 share':>11} {'time (s)':>10}"]
        for k in self.kernels():
            t = self._tally[k]
            share = t.flops_fp32 / t.flops_total if t.flops_total else 0.0
            lines.append(
                f"{k:<12} {t.flops_total / 1e9:>12.3f} {share:>10.1%} {t.seconds:>10.4f}"
            )
        return "\n".join(lines)


def gemm_flops(m: int, n: int, k: int, complex_arith: bool = False) -> float:
    """FLOPs of a dense (m x k) @ (k x n) product (2mnk; x4 for complex)."""
    f = 2.0 * m * n * k
    return 4.0 * f if complex_arith else f


def projected_step_flops(
    M: int, N: int, hermitian: bool, complex_arith: bool = True
) -> float:
    """Paper's lower bound for the O(M N^2) steps: alpha * 4 * N * M * N.

    ``alpha = 1`` when Hermiticity is exploited (CholGS-S, RR-P), else 2
    (CholGS-O, RR-SR).  The factor 4 is the complex-arithmetic factor; for
    Gamma-point (real) calculations it drops to 1.
    """
    alpha = 1.0 if hermitian else 2.0
    complex_factor = 4.0 if complex_arith else 1.0
    return alpha * complex_factor * N * M * N


def chebyshev_filter_flops(
    ncells: int,
    nodes_per_cell: int,
    nvectors: int,
    degree: int,
    complex_arith: bool = False,
) -> float:
    """FLOPs of an m-degree Chebyshev filter built on cell-level GEMMs.

    Linear in (cells x wavefunctions x polynomial degree), matching the
    scaling relation the paper uses to extrapolate CF FLOPs from DislocMgY to
    the TwinDislocMgY systems (same mesh parameters and Chebyshev degree).
    """
    per_apply = gemm_flops(nodes_per_cell, nvectors, nodes_per_cell, complex_arith)
    # three-term recurrence: one H apply + axpy-level work per degree
    return degree * ncells * per_apply
