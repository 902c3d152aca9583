"""The paper's cell-level ``Assembly_FE`` as a one-process Kohn-Sham engine.

``KSOperator`` applies its kinetic term in process through the mesh's tensor
structure (``repro.fem.fdm.AxisKinetic``); the cell-level flow — gather to
cell-local nodes, batched cell GEMM, scatter-add — runs on the rank backends.
Benchmarks that name the paper's kernel (Sec 5.4.1, Fig 4) still have to
measure *it*, at its best: :class:`LocalCells` is a one-rank engine that plugs
in under ``KSOperator(ranks=...)`` and scatters through the mesh's compiled
:class:`~repro.fem.scatter.ScatterMap` rather than the rank kernel's
``np.add.at`` — gather -> ``CellStiffness.apply_cells`` -> CSR scatter, the
engine every in-process apply ran before the axis kernel.
"""

from __future__ import annotations

import numpy as np

from repro.fem.assembly import CellStiffness, KSOperator
from repro.fem.workspace import Workspace

__all__ = ["LocalCells", "cell_operator"]


class LocalCells:
    """One rank holding every cell: the rank-engine protocol, no traffic."""

    nranks = 1

    def __init__(self, mesh, kfrac=None) -> None:
        self.mesh = mesh
        self.stiff = CellStiffness(mesh, kfrac=kfrac)
        self._workspace = Workspace()

    def apply_stiffness_begin(self, x_full: np.ndarray) -> np.ndarray:
        return x_full

    def apply_stiffness_finish(self, x_full: np.ndarray) -> np.ndarray:
        stiff, ws = self.stiff, self._workspace
        Yc = stiff.apply_cells(stiff.gather(x_full, ws), workspace=ws)
        if stiff.phases is not None:
            Yc *= np.conj(stiff.phases)[:, :, None]
        out = ws.zeros("stiff_out", x_full.shape, Yc.dtype)
        return self.mesh.scatter_map.add_to(Yc.reshape(-1, Yc.shape[-1]), out)

    def allreduce(self, array: np.ndarray) -> np.ndarray:
        return array

    def close(self) -> None:
        pass


def cell_operator(mesh, kfrac=None, **kwargs) -> KSOperator:
    """``KSOperator`` whose kinetic term runs the cell-level flow."""
    return KSOperator(mesh, kfrac=kfrac, ranks=LocalCells(mesh, kfrac), **kwargs)
