"""ProcRankCluster: P ranks as real OS processes over shared memory.

The process-level counterpart of :class:`repro.hpc.cluster.VirtualCluster`:
same partition, same owner-sum halo protocol, same traffic metering — but
the ranks are forked workers and the halo payloads actually move through
named shared-memory segments (:class:`.arena.SharedArena`).  Collectives
are the inherited :meth:`VirtualCluster.allreduce`: the Gram and projection
matrices it reduces are formed in the parent, so no worker holds a partial
sum, and the identity plus its metered wire bytes is the whole operation.

Bitwise contract: for any input block, ``apply_stiffness`` returns the
same bits as the virtual cluster.  The partition orders every rank's cells
boundary-first, both backends apply cells through the shared
:meth:`repro.fem.assembly.CellStiffness.add_cells` in the same two passes,
and owners accumulate received payloads in increasing sender order — only
the *schedule* (interior compute concurrent with in-flight ghosts)
differs.  Halo partials travel in FP64: the FP32 wire of paper Sec 5.4.2 is
metered on the virtual cluster only.

Synchronization is blocking-semaphore based, deliberately: per-worker
command semaphores, one counted done semaphore, and per-directed-edge
data/free semaphore pairs guarding double-buffered ghost regions (a
bounded channel of depth 2).  There is no global barrier inside an apply;
the parent only joins on the done count to read the output slab.  Nothing
spins — on an oversubscribed host (the CI box has a single core) the
workers time-slice instead of starving each other.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.fem.mesh import Mesh3D
from repro.obs import add_counter
from repro.resilience import ResilienceError
from repro.resilience import faults as _faults
from repro.tools import sanitize as _sanitize

from ..cluster import VirtualCluster
from .arena import SharedArena
from . import worker as W

__all__ = ["ProcRankCluster", "pin_workers"]

#: timing-slab phases exposed by :meth:`ProcRankCluster.phase_report`
PHASE_NAMES = ("boundary_s", "interior_s", "halo_wait_s", "recv_s", "apply_total_s")


def pin_workers(pids: list[int]) -> dict[int, int]:
    """Pin worker processes to cores, round-robin over the allowed set.

    Rank workers are long-lived compute processes; letting the kernel
    migrate them across cores costs cache warmth on every halo-exchange
    wakeup.  Pinning is strictly best-effort and never load-bearing:

    - skipped when the platform has no ``sched_setaffinity`` (macOS),
    - skipped when the parent's allowed CPU set has fewer than two
      cores (pinning P workers onto one core just serializes them
      harder than the scheduler would),
    - an ``OSError`` from the kernel (e.g. a worker already exited)
      leaves that worker unpinned.

    Returns the ``{pid: core}`` placements that actually applied.
    """
    placements: dict[int, int] = {}
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - macOS
        return placements
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except OSError:  # pragma: no cover - exotic kernels
        return placements
    if len(allowed) < 2:
        return placements
    for i, pid in enumerate(pids):
        core = allowed[i % len(allowed)]
        try:
            os.sched_setaffinity(pid, {core})
        except OSError:  # pragma: no cover - worker raced away
            add_counter("procranks.pin_failed", 1.0)
        else:
            placements[pid] = core
    return placements


class _Links:
    """Fork-inherited semaphores linking the parent and its workers."""

    def __init__(self, ctx, nranks: int, edges: list[tuple[int, int]]) -> None:
        self.cmd = [ctx.Semaphore(0) for _ in range(nranks)]
        self.done = ctx.Semaphore(0)
        # bounded double-buffered channel per directed halo edge
        self.edge_data = {e: ctx.Semaphore(0) for e in edges}
        self.edge_free = {e: ctx.Semaphore(2) for e in edges}


@dataclass
class _ApplyHandle:
    """In-flight distributed apply (between begin and finish)."""

    kind: str  # "pending" | "done"
    B: int = 0
    squeeze: bool = False
    y: np.ndarray | None = None


class ProcRankCluster(VirtualCluster):
    """P forked rank processes executing the halo protocol for real."""

    backend = "proc"

    #: seconds to wait for the worker fleet before declaring it lost
    _DONE_TIMEOUT = 120.0

    def __init__(
        self,
        mesh: Mesh3D,
        nranks: int,
        kfrac: tuple[float, float, float] | None = None,
        block_capacity: int = 16,
    ) -> None:
        super().__init__(mesh, nranks, kfrac=kfrac)
        self._dtype = np.dtype(np.result_type(self.stiff.dtype, np.float64))
        self._lock = threading.RLock()
        self._closed = False
        self._seq = 0
        self._gen = 0
        self._bcap = max(1, int(block_capacity))
        self._plans = W.build_plans(self.partition, self.stiff)
        self._remote_of_rank = [
            halo[self._owner[halo] != r] for r, halo in enumerate(self._halo_of_rank)
        ]
        self._phase_totals = np.zeros((self.nranks, W.TIM_COLS))
        self._applies = 0

        self.arena = SharedArena()
        self._ctrl = self.arena.create("ctrl", (self.nranks, W.CTRL_COLS), np.int64)
        self._tim = self.arena.create("tim", (self.nranks, W.TIM_COLS), np.float64)
        self._create_gen_segments()

        edges = [
            (p.rank, dst) for p in self._plans for dst, _ in p.send_edges
        ]
        ctx = multiprocessing.get_context("fork")
        self._links = _Links(ctx, self.nranks, edges)
        self._workers = [
            ctx.Process(
                target=W.worker_main,
                args=(
                    self._plans[r], self.arena.uid, self._links, self._bcap, self._dtype,
                ),
                name=f"repro-rank-{r}",
                daemon=True,
            )
            for r in range(self.nranks)
        ]
        for p in self._workers:
            p.start()
        #: {pid: core} placements that actually applied (empty when
        #: :func:`pin_workers` skipped the host)
        self.pinned: dict[int, int] = pin_workers([p.pid for p in self._workers])
        # backstop: even an abandoned cluster reaps its workers and
        # segments (the arena holds its own unlink finalizer as well)
        import weakref

        self._reaper = weakref.finalize(
            self, _reap, self._workers, self.arena
        )

    # ------------------------------------------------------------------
    # segment lifecycle

    def _gen_tags(self, gen: int) -> list[str]:
        g = f"g{gen}"
        tags = [f"x-{g}", f"y-{g}"]
        for p in self._plans:
            for dst, _ in p.send_edges:
                tags.append(f"edge-{p.rank}-{dst}-{g}")
        return tags

    def _create_gen_segments(self) -> None:
        g = f"g{self._gen}"
        nn = self.mesh.nnodes
        self._xview = self.arena.create(f"x-{g}", (nn, self._bcap), self._dtype)
        self._yview = self.arena.create(f"y-{g}", (nn, self._bcap), self._dtype)
        for p in self._plans:
            for dst, nodes in p.send_edges:
                self.arena.create(
                    f"edge-{p.rank}-{dst}-{g}", (2, nodes.size, self._bcap), self._dtype
                )

    def _remap(self, bcap: int) -> None:
        """Grow the block capacity (new generation of segments), lock-step
        with the workers."""
        old_tags = self._gen_tags(self._gen)
        self._gen += 1
        # grow geometrically so repeated block-size bumps settle fast
        self._bcap = max(bcap, 2 * self._bcap)
        self._create_gen_segments()
        self._post(W.OP_REMAP, B=self._bcap)
        self._wait_done()
        for tag in old_tags:
            self.arena.drop(tag)

    # ------------------------------------------------------------------
    # command plumbing

    def _post(self, opcode: int, B: int = 0) -> None:
        self._seq += 1
        ctrl = self._ctrl
        for r in range(self.nranks):
            ctrl[r, W.C_OPCODE] = opcode
            ctrl[r, W.C_SEQ] = self._seq
            ctrl[r, W.C_B] = B
            ctrl[r, W.C_GEN] = self._gen
            ctrl[r, W.C_STATUS] = 0
        for r in range(self.nranks):
            self._links.cmd[r].release()

    def _wait_done(self) -> None:
        """Join on the counted done semaphore, watching worker liveness."""
        for _ in range(self.nranks):
            waited = 0.0
            while not self._links.done.acquire(timeout=1.0):
                waited += 1.0
                dead = [p.name for p in self._workers if not p.is_alive()]
                if dead:
                    raise ResilienceError(
                        "procrank",
                        f"rank worker(s) died mid-operation: {', '.join(dead)}",
                        attempts=1,
                    )
                if waited >= self._DONE_TIMEOUT:
                    raise ResilienceError(
                        "procrank",
                        f"worker fleet unresponsive for {waited:.0f}s",
                        attempts=1,
                    )
        if np.any(self._ctrl[:, W.C_STATUS] != 0):
            bad = np.nonzero(self._ctrl[:, W.C_STATUS])[0].tolist()
            raise ResilienceError(
                "procrank", f"rank worker(s) {bad} failed (see stderr)", attempts=1
            )

    # ------------------------------------------------------------------
    # the VirtualCluster surface

    def apply_stiffness(self, x_full: np.ndarray) -> np.ndarray:
        return self.apply_stiffness_finish(self.apply_stiffness_begin(x_full))

    def apply_stiffness_begin(self, x_full: np.ndarray) -> _ApplyHandle:
        """Ship the input block and post the apply; returns immediately.

        Between begin and finish the workers run the halo exchange and the
        cell GEMMs; the caller is free to do unrelated compute — this is
        the operator-level half of the compute/communication overlap.
        """
        squeeze = x_full.ndim == 1
        X = x_full[:, None] if squeeze else x_full
        B = X.shape[1]
        dtype = np.result_type(self.stiff.dtype, X.dtype)
        self._lock.acquire()
        try:
            if self._closed or np.dtype(dtype) != self._dtype:
                # unsupported dtype (or torn-down fleet): the in-process
                # protocol is bitwise-identical by construction
                y = super().apply_stiffness(x_full)
                return _ApplyHandle(kind="done", y=y)
            if B > self._bcap:
                self._remap(B)
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag + ":arena")
            try:
                self._xview[:, :B] = X
            finally:
                if san is not None:
                    san.write_end(self._san_tag + ":arena")
            self._post(W.OP_APPLY, B=B)
            return _ApplyHandle(kind="pending", B=B, squeeze=squeeze)
        # lock-release-on-unwind, not a handler: everything (including an
        # injected fault) is re-raised after the begin/finish lock is undone
        except BaseException:  # reprolint: disable=R011
            self._lock.release()
            raise

    def apply_stiffness_finish(self, handle: _ApplyHandle) -> np.ndarray:
        """Join the in-flight apply: gather the owned slabs, meter, time."""
        if handle.kind == "done":
            self._lock.release()
            return handle.y
        try:
            self._wait_done()
            B = handle.B
            y = self._yview[:, :B].copy()
            # measured per-phase timings -> reproscope counters + report
            san = _sanitize._STATE
            if san is not None:
                san.write_begin(self._san_tag + ":arena")
            try:
                self._phase_totals += self._tim
                self._applies += 1
            finally:
                if san is not None:
                    san.write_end(self._san_tag + ":arena")
            add_counter("proc_boundary_s", float(self._tim[:, W.PH_BOUNDARY].sum()))
            add_counter("proc_interior_s", float(self._tim[:, W.PH_INTERIOR].sum()))
            add_counter("proc_halo_wait_s", float(self._tim[:, W.PH_WAIT].sum()))
            add_counter("proc_recv_s", float(self._tim[:, W.PH_RECV].sum()))
            # metering: identical per-rank accounting to the virtual cluster
            for r in range(self.nranks):
                remote = self._remote_of_rank[r]
                if _faults._PLAN is not None and remote.size:
                    # reprochaos halo site, same self-healing protocol
                    self._deliver_halo(y, r, remote.size, B)
                self._meter_halo(r, remote.size, B)
            return y[:, 0] if handle.squeeze else y
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    # phase report & lifecycle

    def phase_report(self) -> dict:
        """Measured per-phase seconds, summed over ranks and applies.

        ``halo_wait_fraction`` is the fraction of total apply time spent
        blocked on in-flight ghosts (what running the interior cells under
        the exchange is supposed to hide); the benchmark ledger reads it as
        ``hpc.halo_wait_frac``.  The same phases reach an open trace as the
        ``proc_*_s`` counters of every apply.
        """
        with self._lock:
            tot = self._phase_totals
            report = {
                name: float(tot[:, i].sum()) for i, name in enumerate(PHASE_NAMES)
            }
            report["applies"] = self._applies
            report["nranks"] = self.nranks
            total = report["apply_total_s"]
            report["halo_wait_fraction"] = (
                report["halo_wait_s"] / total if total > 0 else 0.0
            )
            report["per_rank"] = {
                name: tot[:, i].tolist() for i, name in enumerate(PHASE_NAMES)
            }
            return report

    def close(self) -> None:
        """Shut the worker fleet down and unlink every arena segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if all(p.is_alive() for p in self._workers):
                    self._post(W.OP_SHUTDOWN)
                    for p in self._workers:
                        p.join(timeout=10.0)
            finally:
                for p in self._workers:
                    if p.is_alive():
                        p.terminate()
                        p.join(timeout=10.0)
                self._reaper.detach()
                self.arena.close()

    def __enter__(self) -> "ProcRankCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _reap(workers, arena: SharedArena) -> None:
    """Finalizer backstop: kill stray workers, unlink stray segments."""
    for p in workers:
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)
    arena.close()
