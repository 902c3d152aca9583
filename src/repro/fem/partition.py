"""Domain decomposition of the spectral-element mesh.

Cells are divided among ``nranks`` MPI-style ranks as contiguous blocks of a
3D process grid (mirroring the load-balanced FE partitioning in DFT-FE, which
the paper reports gives near-equal DoF per task).  Nodes on the faces shared
between ranks form the *halo*: the ``Assembly_FE`` scatter requires summing
contributions to these nodes across ranks — this is the point-to-point
communication the paper performs in FP32 (Sec 5.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Mesh3D

__all__ = ["Partition", "process_grid"]


def process_grid(nranks: int, ncells_axis: tuple[int, int, int]) -> tuple[int, int, int]:
    """Choose a 3D process grid for ``nranks`` close to the cell aspect ratio.

    Greedy factorization: repeatedly assign the largest prime factor to the
    axis with the most cells per process.
    """
    grid = [1, 1, 1]
    factors = _prime_factors(nranks)
    for f in sorted(factors, reverse=True):
        loads = [ncells_axis[a] / grid[a] for a in range(3)]
        axis = int(np.argmax(loads))
        grid[axis] *= f
    return tuple(grid)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass
class Partition:
    """Assignment of mesh cells (and nodes) to ``nranks`` ranks."""

    mesh: Mesh3D
    nranks: int

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError("need at least one rank")
        ncx, ncy, ncz = self.mesh.ncells_axis
        if self.nranks > self.mesh.ncells:
            raise ValueError("more ranks than cells")
        self.grid = process_grid(self.nranks, (ncx, ncy, ncz))
        splits = [
            np.array_split(np.arange(n), g)
            for n, g in zip((ncx, ncy, ncz), self.grid)
        ]
        cells = np.arange(self.mesh.ncells).reshape(ncx, ncy, ncz)
        self.cells_of_rank: list[np.ndarray] = []
        for ix in splits[0]:
            for iy in splits[1]:
                for iz in splits[2]:
                    self.cells_of_rank.append(
                        cells[np.ix_(ix, iy, iz)].ravel().copy()
                    )
        # process_grid may produce fewer blocks than nranks never; exactly prod(grid)
        assert len(self.cells_of_rank) == int(np.prod(self.grid))
        # Reorder each rank's cells *boundary-first* (stable within each
        # class).  Boundary cells are the ones touching a halo node — the
        # only cells whose contributions cross rank boundaries.  Computing
        # them first lets the process backend post its halo sends before
        # the interior work, and because every backend (virtual and
        # process-level) iterates the same reordered list, the per-node
        # accumulation order — hence the bitwise result — is identical
        # whether the interior compute runs under the exchange or after
        # it.  The halo/owner/node caches are order-insensitive
        # (np.unique), so they may be materialized before the reorder.
        is_halo = np.zeros(self.mesh.nnodes, dtype=bool)
        is_halo[self.halo_nodes] = True
        conn = self.mesh.conn
        self.n_boundary_of_rank: list[int] = []
        for r, rcells in enumerate(self.cells_of_rank):
            boundary = is_halo[conn[rcells]].any(axis=1)
            self.cells_of_rank[r] = np.concatenate(
                [rcells[boundary], rcells[~boundary]]
            )
            self.n_boundary_of_rank.append(int(np.count_nonzero(boundary)))

    @cached_property
    def nodes_of_rank(self) -> list[np.ndarray]:
        """Sorted unique global node indices touched by each rank's cells."""
        conn = self.mesh.conn
        return [np.unique(conn[c]) for c in self.cells_of_rank]

    @cached_property
    def touch_count(self) -> np.ndarray:
        """(nnodes,) number of ranks whose cells touch each node."""
        count = np.zeros(self.mesh.nnodes, dtype=np.int32)
        for nodes in self.nodes_of_rank:
            count[nodes] += 1
        return count

    @cached_property
    def halo_nodes(self) -> np.ndarray:
        """Global indices of nodes shared between two or more ranks."""
        return np.nonzero(self.touch_count > 1)[0]

    @cached_property
    def owner(self) -> np.ndarray:
        """(nnodes,) owning rank of each node (lowest touching rank)."""
        own = np.full(self.mesh.nnodes, -1, dtype=np.int32)
        for r in range(len(self.cells_of_rank) - 1, -1, -1):
            own[self.nodes_of_rank[r]] = r
        return own

    def halo_nodes_of_rank(self, rank: int) -> np.ndarray:
        """Halo nodes touched by ``rank`` (sent/received each scatter)."""
        nodes = self.nodes_of_rank[rank]
        return nodes[self.touch_count[nodes] > 1]

    @cached_property
    def neighbors_of_rank(self) -> list[np.ndarray]:
        """Ranks sharing at least one (halo) node with each rank."""
        nranks = len(self.cells_of_rank)
        touch = np.zeros((nranks, self.mesh.nnodes), dtype=bool)
        for r, nodes in enumerate(self.nodes_of_rank):
            touch[r, nodes] = True
        shared = touch[:, self.halo_nodes]
        out = []
        for r in range(nranks):
            both = shared & shared[r]
            ranks = np.nonzero(both.any(axis=1))[0]
            out.append(ranks[ranks != r].astype(np.int32))
        return out

    def send_nodes(self, src: int, dst: int) -> np.ndarray:
        """Global nodes touched by ``src`` but owned by ``dst`` (sorted).

        These are exactly the nodes whose partial sums ``src`` ships to
        ``dst`` in the owner-sum halo protocol; the receiving rank adds the
        payloads in increasing sender order, matching the virtual cluster's
        increasing-rank accumulation bit for bit.
        """
        nodes = self.nodes_of_rank[src]
        return nodes[self.owner[nodes] == dst]

    def owned_nodes(self, rank: int) -> np.ndarray:
        """Global nodes owned by ``rank`` (sorted)."""
        nodes = self.nodes_of_rank[rank]
        return nodes[self.owner[nodes] == rank]

    def dof_balance(self) -> np.ndarray:
        """Owned-node counts per rank — near-equal for balanced partitions."""
        return np.bincount(self.owner, minlength=len(self.cells_of_rank))

    def halo_fraction(self) -> float:
        """Fraction of nodes that are shared (communication surface)."""
        return float(self.halo_nodes.size) / float(self.mesh.nnodes)
