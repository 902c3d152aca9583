"""Precomputed scatter-add maps (the fast half of ``Assembly_FE``).

``np.add.at`` — the obvious way to scatter cell-local contributions back to
global nodes — is an *unbuffered* ufunc inner loop with per-element dispatch
overhead, typically 5-20x slower than the batched GEMM it follows.  Since
the connectivity of a mesh never changes, the scatter is instead compiled
**once** into a :class:`ScatterMap` and replayed on every operator
application as the sparse-matrix product ``out += S @ V``, where ``S`` is
the fixed ``(nnodes, nnz)`` 0/1 CSR assembly matrix with exactly one entry
per cell-local node.  ``scipy.sparse`` executes it as a tight C loop.
Weights (e.g. conjugated Bloch phases) are applied to ``V`` by numpy
*before* the product: baking complex weights into the CSR data is not
bit-safe, because scipy's C++ complex multiply may contract to FMA and
round differently from numpy's.

The product adds each node's contributions **in the same order as the flat
connectivity**, i.e. in exactly the order ``np.add.at`` would, so for a
zero-initialized output the result is *bit-for-bit identical* to the naive
scatter (IEEE addition of an identical operand sequence).  That naive
scatter is the degradation ladder's last rung: inside
``with reference_scatter():`` the calling thread's ``add_to`` calls bypass
the compiled matrix.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np
from scipy import sparse

__all__ = ["ScatterMap", "reference_scatter"]

_local = threading.local()


@contextmanager
def reference_scatter() -> Iterator[None]:
    """Run this thread's scatters through ``np.add.at`` inside the block.

    Thread-scoped on purpose: a driver degrading on one worker thread must
    not slow down (or be undone by) a driver running on another.
    """
    prev = getattr(_local, "reference", False)
    _local.reference = True
    try:
        yield
    finally:
        _local.reference = prev


class ScatterMap:
    """Precomputed ``out[indices[r]] += weights[r] * values[r]`` scatter.

    Parameters
    ----------
    indices:
        Integer array (any shape) of target node indices; flattened in C
        order.  One scatter row per flattened entry.
    nnodes:
        Size of the output's leading axis.
    weights:
        Optional per-entry multipliers (e.g. conjugated Bloch phases),
        flattened alongside ``indices``.  ``None`` means unit weights.

    The map is immutable after construction and safe to share across
    threads.
    """

    def __init__(
        self,
        indices: np.ndarray,
        nnodes: int,
        weights: np.ndarray | None = None,
    ) -> None:
        flat = np.ascontiguousarray(np.asarray(indices, dtype=np.int64).ravel())
        self.indices = flat
        self.nnodes = int(nnodes)
        self.weights = (
            None if weights is None else np.ascontiguousarray(weights.ravel())
        )
        # column j of S is the j-th flat entry: within each CSR row the
        # entries sort by column = flat position, i.e. occurrence order, so
        # the sequential per-row accumulation of csr_matvecs replays the
        # np.add.at addition sequence exactly.  The data is strictly unit
        # (1.0 * x is exact even under FMA contraction); weights are applied
        # to the values beforehand so the products round identically to the
        # reference's numpy multiply.
        self._S = sparse.csr_matrix(
            (
                np.ones(flat.size, dtype=np.float64),
                (flat, np.arange(flat.size, dtype=np.int64)),
            ),
            shape=(self.nnodes, flat.size),
        )

    # ------------------------------------------------------------------
    def _apply_weights(self, values: np.ndarray) -> np.ndarray:
        if self.weights is None:
            return values
        w = self.weights
        return w[:, None] * values if values.ndim == 2 else w * values

    def add_to(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Scatter-add ``values`` (rows = flattened indices) into ``out``.

        ``values`` has shape ``(nnz,)`` or ``(nnz, B)`` matching ``out``'s
        ``(nnodes,)`` / ``(nnodes, B)``.  Returns ``out``.

        Bit-compatibility note: for a zero-initialized ``out`` the CSR
        product reproduces ``np.add.at`` bit-for-bit; for a nonzero ``out``
        it adds each node's *total* in one operation (one rounding step
        instead of ``valence`` steps).
        """
        values = self._apply_weights(values)
        if getattr(_local, "reference", False):
            np.add.at(out, self.indices, values)
        else:
            out += self._S @ values
        return out
