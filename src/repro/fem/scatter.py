"""Precomputed scatter-add maps (the fast half of ``Assembly_FE``).

``np.add.at`` — the obvious way to scatter cell-local contributions back to
global nodes — is an *unbuffered* ufunc inner loop with per-element dispatch
overhead, typically 5-20x slower than the batched GEMM it follows.  Since
the connectivity of a mesh never changes, the scatter is instead compiled
**once** into a :class:`ScatterMap` and replayed on every operator
application as the sparse-matrix product ``out += S @ V``, where ``S`` is
the fixed ``(nnodes, nnz)`` 0/1 CSR assembly matrix with exactly one entry
per cell-local node.  ``scipy.sparse`` executes it as a tight C loop.

The product adds each node's contributions **in the same order as the flat
connectivity**, i.e. in exactly the order ``np.add.at`` would, so for a
zero-initialized output the result is *bit-for-bit identical* to the naive
scatter (``tests/reference`` holds it as the oracle): IEEE addition of an
identical operand sequence, the unit CSR data exact even under FMA.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = ["ScatterMap"]


class ScatterMap:
    """Precomputed ``out[indices[r]] += values[r]`` scatter.

    Parameters
    ----------
    indices:
        Integer array (any shape) of target node indices; flattened in C
        order.  One scatter row per flattened entry.
    nnodes:
        Size of the output's leading axis.

    The map is immutable after construction and safe to share across
    threads.
    """

    def __init__(self, indices: np.ndarray, nnodes: int) -> None:
        flat = np.ascontiguousarray(np.asarray(indices, dtype=np.int64).ravel())
        self.indices = flat
        self.nnodes = int(nnodes)
        # column j of S is the j-th flat entry: within each CSR row the
        # entries sort by column = flat position, i.e. occurrence order, so
        # the sequential per-row accumulation of csr_matvecs replays the
        # np.add.at addition sequence exactly
        self._S = sparse.csr_matrix(
            (
                np.ones(flat.size, dtype=np.float64),
                (flat, np.arange(flat.size, dtype=np.int64)),
            ),
            shape=(self.nnodes, flat.size),
        )

    def add_to(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Scatter-add ``values`` (rows = flattened indices) into ``out``.

        ``values`` has shape ``(nnz,)`` or ``(nnz, B)`` matching ``out``'s
        ``(nnodes,)`` / ``(nnodes, B)``.  Returns ``out``.

        Bit-compatibility note: for a zero-initialized ``out`` the CSR
        product reproduces ``np.add.at`` bit-for-bit; for a nonzero ``out``
        it adds each node's *total* in one operation (one rounding step
        instead of ``valence`` steps).
        """
        out += self._S @ values
        return out
