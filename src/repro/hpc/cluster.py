"""Virtual MPI cluster: execute the domain-decomposed algorithm for real.

The paper's distributed ``Assembly_FE`` is reproduced exactly, in-process:
cells are divided among P ranks, each rank computes its local cell-level
batched GEMMs and scatter, and contributions to *halo* nodes (shared between
ranks) are exchanged — optionally cast to FP32, the paper's mixed-precision
boundary communication (Sec 5.4.2).  Every exchange is metered, giving real
byte/message counts that feed the performance model, and the numerical
effect of FP32 halos can be measured directly (tests bound it).

This substitutes for MPI + GPU-aware communication on the real machines:
the *algorithm* (partitioning, owner-sum-broadcast halo protocol, reduced
precision on the wire) is identical; only the transport is in-memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.assembly import CellStiffness
from repro.fem.mesh import Mesh3D
from repro.fem.partition import Partition
from repro.fem.workspace import Workspace
from repro.precision import f32_dtype
from repro.obs import add_counter
from repro.resilience import InjectedFault, ResilienceError
from repro.resilience import faults as _faults
from repro.tools import sanitize as _sanitize

__all__ = ["TrafficReport", "VirtualCluster"]


@dataclass
class TrafficReport:
    """Accumulated communication volume."""

    p2p_bytes: float = 0.0
    p2p_messages: int = 0
    allreduce_bytes: float = 0.0
    allreduce_calls: int = 0

    def reset(self) -> None:
        self.p2p_bytes = 0.0
        self.p2p_messages = 0
        self.allreduce_bytes = 0.0
        self.allreduce_calls = 0


class VirtualCluster:
    """P simulated ranks executing the distributed stiffness application."""

    #: backend name reported by ``repro info`` and the traffic reports
    backend = "virtual"

    def __init__(
        self,
        mesh: Mesh3D,
        nranks: int,
        kfrac: tuple[float, float, float] | None = None,
        fp32_halo: bool = False,
    ) -> None:
        self.mesh = mesh
        self.partition = Partition(mesh, nranks)
        self.nranks = len(self.partition.cells_of_rank)
        self.stiff = CellStiffness(mesh, kfrac=kfrac)
        self.fp32_halo = fp32_halo
        self.traffic = TrafficReport()
        self._san_tag = f"VirtualCluster.traffic:{id(self)}"
        self._halo_of_rank = [
            self.partition.halo_nodes_of_rank(r) for r in range(self.nranks)
        ]
        #: pooled per-rank accumulation buffer of :meth:`apply_stiffness`
        #: (re-zeroed per rank; one allocation per (shape, dtype) instead of
        #: one per rank per apply)
        self._workspace = Workspace()
        self._owner = self.partition.owner
        # neighbor counts: ranks sharing at least one node
        self._neighbors = [
            int(nbrs.size) for nbrs in self.partition.neighbors_of_rank
        ]

    @property
    def halo_word_bytes(self) -> int:
        base = 8 if self.stiff.phases is None else 16
        return base // 2 if self.fp32_halo else base

    def apply_stiffness(self, x_full: np.ndarray) -> np.ndarray:
        """Distributed ``K @ x`` with the owner-sum halo protocol.

        Each rank's partial contributions to halo nodes travel to the
        owning rank (metered, optionally in FP32); the summed values are
        returned to all touching ranks (metered again).  The returned array
        is bitwise identical across ranks, so a single copy is returned.
        """
        squeeze = x_full.ndim == 1
        X = x_full[:, None] if squeeze else x_full
        B = X.shape[1]
        dtype = np.result_type(self.stiff.dtype, X.dtype)
        f32 = f32_dtype(dtype)
        y = np.zeros((self.mesh.nnodes, B), dtype=dtype)
        for r, cells in enumerate(self.partition.cells_of_rank):
            # pooled across ranks (zeroed each time, so the accumulation is
            # bitwise identical to a fresh np.zeros per rank)
            local = self._workspace.get(
                "cluster_local", (self.mesh.nnodes, B), dtype, zero=True
            )
            san = _sanitize._STATE
            if san is not None:
                san.assert_owned(local, context="cluster rank-local accumulator")
            # Two passes — boundary cells (the partition orders them first)
            # then interior — matching the process backend's overlapped
            # schedule pass-for-pass; per-node accumulation order (hence
            # bits) is unchanged because the cell order is the same.
            nb = self.partition.n_boundary_of_rank[r]
            for sub in (cells[:nb], cells[nb:]):
                if sub.size:
                    self.stiff.add_cells(X, sub, local)
            halo = self._halo_of_rank[r]
            remote = halo[self._owner[halo] != r]
            if _faults._PLAN is not None and remote.size:
                # reprochaos site: the halo payload may be dropped/poisoned;
                # the protocol below retransmits until it arrives pristine
                self._deliver_halo(local, r, remote.size, B)
            if self.fp32_halo and remote.size:
                # Whitelisted FP32 halo downcast (paper Sec 5.4.2): only the
                # partial sums crossing rank boundaries travel in FP32; the
                # owner's accumulation and all interior nodes stay FP64.
                # tests/test_hpc.py bounds the resulting error.
                local[remote] = local[remote].astype(f32).astype(dtype)
            y += local
            # metering: partials sent to owners + summed values received back
            self._meter_halo(r, remote.size, B)
        return y[:, 0] if squeeze else y

    def apply_stiffness_begin(self, x_full: np.ndarray):
        """Handle for :meth:`apply_stiffness_finish`; the in-process ranks
        are sequential, so the product runs at the join (``x_full`` must
        stay untouched until then)."""
        return x_full

    def apply_stiffness_finish(self, pending) -> np.ndarray:
        return self.apply_stiffness(pending)

    def _meter_halo(self, r: int, remote_size: int, B: int) -> None:
        """Meter one rank's halo exchange (sanitizer-windowed)."""
        halo_bytes = 2 * remote_size * B * self.halo_word_bytes
        san = _sanitize._STATE
        if san is not None:
            san.write_begin(self._san_tag)
        try:
            self.traffic.p2p_bytes += halo_bytes
            self.traffic.p2p_messages += 2 * self._neighbors[r]
        finally:
            if san is not None:
                san.write_end(self._san_tag)
        add_counter("halo_bytes", halo_bytes)
        add_counter("halo_messages", 2 * self._neighbors[r])

    def close(self) -> None:
        """Release backend resources (no-op for the in-process cluster)."""

    #: consecutive failed transfers tolerated before the exchange gives up
    _MAX_HALO_RETRANSMITS = 3

    def _deliver_halo(
        self, local: np.ndarray, r: int, remote_size: int, B: int
    ) -> None:
        """Self-healing halo transfer under an armed fault plan.

        Models an acknowledged exchange: a dropped or corrupted message is
        detected (checksum/timeout on the real machine), the pristine
        payload is restored and retransmitted — re-metered, since the bad
        attempt moved bytes on the wire too — until it arrives clean or
        ``_MAX_HALO_RETRANSMITS`` consecutive transfers have failed.
        Recovery is bitwise exact: the delivered payload is the pristine
        one, so a healed run matches the fault-free run bit for bit.
        """
        pristine = local.copy()
        attempts = 0
        while True:
            try:
                verdict = _faults.fault_point("halo", local)
            except InjectedFault as exc:
                verdict = exc.kind  # a crashed transfer: retransmit as well
            if verdict is None or verdict == "slow":
                return
            attempts += 1
            add_counter("halo_retransmits", 1)
            self._meter_halo(r, remote_size, B)
            if attempts > self._MAX_HALO_RETRANSMITS:
                raise ResilienceError(
                    "halo",
                    f"exchange failed {attempts} consecutive times "
                    f"(last fault: {verdict})",
                    attempts=attempts,
                )
            np.copyto(local, pristine)

    def allreduce(self, array: np.ndarray) -> np.ndarray:
        """Meter an allreduce of ``array`` across the ranks (identity op)."""
        wire_bytes = array.nbytes * 2 * (self.nranks - 1) / max(self.nranks, 1)
        self.traffic.allreduce_bytes += wire_bytes
        self.traffic.allreduce_calls += 1
        add_counter("allreduce_bytes", wire_bytes)
        return array

    def dof_balance(self) -> np.ndarray:
        return self.partition.dof_balance()
