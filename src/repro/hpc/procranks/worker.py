"""Rank worker: the per-process side of the shared-memory halo protocol.

Each rank runs :func:`worker_main` in a forked child.  The parent posts a
command (apply / remap / shutdown) into the control slab and
releases the rank's command semaphore; the worker executes it against the
shared arena and releases the counted done semaphore.

The apply reproduces :meth:`repro.hpc.cluster.VirtualCluster.apply_stiffness`
rank-for-rank, bit for bit:

* cells are applied **boundary-first** in the partition's reordered cell
  list, so the per-node ``np.add.at`` accumulation order matches the
  virtual cluster's two passes exactly;
* the owner adds received payloads in increasing sender rank order, the
  same order the virtual cluster's ``y += local`` loop realizes.

The ghost sends go out right after the boundary pass, and the interior
cells run while neighbor payloads are in flight; the phase timings
measure how much of the exchange that hides.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.obs import Stopwatch

from .arena import SharedArena

__all__ = [
    "OP_APPLY",
    "OP_REMAP",
    "OP_SHUTDOWN",
    "PH_BOUNDARY",
    "PH_INTERIOR",
    "PH_WAIT",
    "PH_RECV",
    "PH_TOTAL",
    "CTRL_COLS",
    "TIM_COLS",
    "RankPlan",
    "build_plans",
    "worker_main",
]

# control slab columns (int64, one row per rank)
C_OPCODE, C_SEQ, C_B, C_GEN, C_STATUS = range(5)
CTRL_COLS = 5
OP_APPLY, OP_REMAP, OP_SHUTDOWN = 1, 2, 3

# timing slab columns (float64 seconds, one row per rank)
PH_BOUNDARY, PH_INTERIOR, PH_WAIT, PH_RECV, PH_TOTAL = range(5)
TIM_COLS = 5


@dataclass
class RankPlan:
    """Everything rank ``r`` needs to run its side of the halo protocol.

    Built in the parent before the fork; workers inherit it by reference
    (fork start method), so the cell stiffness (and its mesh connectivity)
    is shared copy-on-write rather than pickled.
    """

    rank: int
    nranks: int
    nnodes: int
    #: this rank's cells, boundary-first (the partition's reordered list)
    cells: np.ndarray
    #: how many leading ``cells`` touch a halo node
    n_boundary: int
    #: global nodes this rank owns (sorted)
    owned: np.ndarray
    #: outgoing edges: (dst_rank, global nodes shipped), increasing dst
    send_edges: list[tuple[int, np.ndarray]] = field(default_factory=list)
    #: incoming edges: (src_rank, nodes, positions within ``owned``),
    #: increasing src — the owner-sum accumulation order
    recv_edges: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)
    #: cell stiffness (with its mesh connectivity), shared via fork
    stiff: object | None = None


def build_plans(partition, stiff) -> list[RankPlan]:
    """One :class:`RankPlan` per rank of ``partition``."""
    nranks = len(partition.cells_of_rank)
    plans = []
    for r in range(nranks):
        owned = partition.owned_nodes(r)
        plan = RankPlan(
            rank=r,
            nranks=nranks,
            nnodes=partition.mesh.nnodes,
            cells=partition.cells_of_rank[r],
            n_boundary=partition.n_boundary_of_rank[r],
            owned=owned,
            stiff=stiff,
        )
        for dst in range(nranks):
            if dst == r:
                continue
            out_nodes = partition.send_nodes(r, dst)
            if out_nodes.size:
                plan.send_edges.append((dst, out_nodes))
            in_nodes = partition.send_nodes(dst, r)
            if in_nodes.size:
                pos = np.searchsorted(owned, in_nodes)
                plan.recv_edges.append((dst, in_nodes, pos))
        plans.append(plan)
    return plans


class _Views:
    """The worker's attached ndarray views of the current generation."""

    def __init__(self, arena: SharedArena, plan: RankPlan, gen: int,
                 bcap: int, dtype) -> None:
        self.gen = gen
        self.bcap = bcap
        g = f"g{gen}"
        self.x = arena.attach(f"x-{g}", (plan.nnodes, bcap), dtype)
        self.y = arena.attach(f"y-{g}", (plan.nnodes, bcap), dtype)
        self.send = {
            dst: arena.attach(f"edge-{plan.rank}-{dst}-{g}", (2, nodes.size, bcap), dtype)
            for dst, nodes in plan.send_edges
        }
        self.recv = {
            src: arena.attach(f"edge-{src}-{plan.rank}-{g}", (2, nodes.size, bcap), dtype)
            for src, nodes, _ in plan.recv_edges
        }

    def drop(self, arena: SharedArena, plan: RankPlan) -> None:
        g = f"g{self.gen}"
        for tag in [f"x-{g}", f"y-{g}"]:
            arena.drop(tag)
        for dst, _ in plan.send_edges:
            arena.drop(f"edge-{plan.rank}-{dst}-{g}")
        for src, _, _ in plan.recv_edges:
            arena.drop(f"edge-{src}-{plan.rank}-{g}")


def _do_apply(plan: RankPlan, views: _Views, links, ctrl_row, tim_row) -> None:
    """One distributed stiffness application on this rank."""
    sw_total = Stopwatch()
    seq = int(ctrl_row[C_SEQ])
    B = int(ctrl_row[C_B])
    slot = seq % 2
    X = views.x[:, :B]
    dtype = views.x.dtype
    local = np.zeros((plan.nnodes, B), dtype=dtype)
    stiff = plan.stiff
    nb = plan.n_boundary

    sw = Stopwatch()
    if nb:
        stiff.add_cells(X, plan.cells[:nb], local)
    t_boundary = sw.restart()

    # post the ghost sends: double-buffered bounded channel per edge
    for dst, nodes in plan.send_edges:
        links.edge_free[(plan.rank, dst)].acquire()
        views.send[dst][slot, :, :B] = local[nodes]
        links.edge_data[(plan.rank, dst)].release()

    # interior compute proceeds while neighbor payloads are in flight
    t_interior = 0.0
    if nb < plan.cells.size:
        sw.restart()
        stiff.add_cells(X, plan.cells[nb:], local)
        t_interior = sw.restart()

    # owner-sum: own contribution first (the owner is the lowest touching
    # rank), then received payloads in increasing sender order — the same
    # per-node accumulation order as the virtual cluster's y += local loop
    y_own = local[plan.owned]
    t_wait = 0.0
    t_recv = 0.0
    sw.restart()
    for src, _, pos in plan.recv_edges:
        links.edge_data[(src, plan.rank)].acquire()
        t_wait += sw.restart()
        y_own[pos] += views.recv[src][slot, :, :B]
        links.edge_free[(src, plan.rank)].release()
        t_recv += sw.restart()
    views.y[:, :B][plan.owned] = y_own

    tim_row[PH_BOUNDARY] = t_boundary
    tim_row[PH_INTERIOR] = t_interior
    tim_row[PH_WAIT] = t_wait
    tim_row[PH_RECV] = t_recv
    tim_row[PH_TOTAL] = sw_total.elapsed()


def worker_main(plan: RankPlan, uid: str, links, bcap: int, dtype) -> None:
    """Entry point of one forked rank worker: wait, execute, acknowledge."""
    arena = SharedArena(uid=uid, create=False)
    ctrl = arena.attach("ctrl", (plan.nranks, CTRL_COLS), np.int64)
    tim = arena.attach("tim", (plan.nranks, TIM_COLS), np.float64)
    views = _Views(arena, plan, 0, bcap, dtype)
    row = ctrl[plan.rank]
    tim_row = tim[plan.rank]
    try:
        while True:
            links.cmd[plan.rank].acquire()
            op = int(row[C_OPCODE])
            try:
                if op == OP_SHUTDOWN:
                    links.done.release()
                    break
                if op == OP_REMAP:
                    views.drop(arena, plan)
                    views = _Views(arena, plan, int(row[C_GEN]), int(row[C_B]), dtype)
                elif op == OP_APPLY:
                    _do_apply(plan, views, links, row, tim_row)
                row[C_STATUS] = 0
            # the crash-to-status boundary of the rank protocol: a worker
            # failure is reported via C_STATUS and re-raised on the parent
            # side as a structured ResilienceError by _wait_done
            except Exception:  # reprolint: disable=R011
                traceback.print_exc(file=sys.stderr)
                row[C_STATUS] = 1
            links.done.release()
    finally:
        arena.close()
