"""Public API: set up and run a DFT-FE-MLXC style ground-state calculation.

:class:`DFTCalculation` wires together the mesh generator (with geometric
grading toward the atoms), the electrostatics, the XC functional and the
ChFES-based SCF driver into the one-call interface used by the examples and
benchmarks::

    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation
    from repro.xc import LDA

    config = AtomicConfiguration(["H", "H"], [[0, 0, 0], [1.4, 0, 0]])
    calc = DFTCalculation(config, xc=LDA(), degree=5)
    result = calc.run()
    print(result.energy)
"""

from __future__ import annotations

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.fem.mesh import Mesh3D, graded_edges
from repro.xc.base import XCFunctional
from repro.xc.lda import LDA

from .scf import SCFDriver, SCFOptions, SCFResult

__all__ = ["DFTCalculation", "auto_mesh", "homo_lumo_gap"]


def auto_mesh(
    config: AtomicConfiguration,
    padding: float = 9.0,
    cells_per_axis: int | tuple[int, int, int] = 5,
    degree: int = 5,
    grading_ratio: float = 2.0,
) -> tuple[Mesh3D, AtomicConfiguration]:
    """Build a mesh around ``config`` and return (mesh, shifted config).

    For isolated systems the domain is the atomic bounding box plus
    ``padding`` Bohr on every side, graded toward the geometric center.  For
    periodic systems the (orthorhombic) lattice defines the domain and atoms
    are wrapped into it.
    """
    if isinstance(cells_per_axis, int):
        cells_per_axis = (cells_per_axis,) * 3
    if any(config.pbc):
        if config.lattice is None:
            raise ValueError("periodic configuration requires a lattice")
        off = np.abs(config.lattice - np.diag(np.diag(config.lattice))).max()
        if off > 1e-10:
            raise ValueError("only orthorhombic lattices are supported")
        lengths = np.diag(config.lattice).copy()
        pos = config.positions.copy()
        edges, pbc = [], []
        for a in range(3):
            if config.pbc[a]:
                pos[:, a] %= lengths[a]
                edges.append(graded_edges(lengths[a], cells_per_axis[a]))
                pbc.append(True)
            else:
                lo = pos[:, a].min() - padding
                hi = pos[:, a].max() + padding
                pos[:, a] -= lo
                lengths[a] = hi - lo
                edges.append(
                    graded_edges(
                        lengths[a], cells_per_axis[a],
                        center=float(np.mean(pos[:, a])), ratio=grading_ratio,
                    )
                )
                pbc.append(False)
        mesh = Mesh3D(edges=tuple(edges), degree=degree, pbc=tuple(pbc))
        shifted = AtomicConfiguration(
            list(config.symbols), pos, lattice=np.diag(lengths), pbc=config.pbc
        )
        return mesh, shifted

    lo = config.positions.min(axis=0) - padding
    hi = config.positions.max(axis=0) + padding
    lengths = hi - lo
    pos = config.positions - lo
    center = pos.mean(axis=0)
    edges = tuple(
        graded_edges(lengths[a], cells_per_axis[a], center=center[a],
                     ratio=grading_ratio)
        for a in range(3)
    )
    mesh = Mesh3D(edges=edges, degree=degree)
    shifted = AtomicConfiguration(list(config.symbols), pos)
    return mesh, shifted


class DFTCalculation:
    """High-level ground-state DFT calculation on a spectral-element mesh."""

    def __init__(
        self,
        config: AtomicConfiguration,
        xc: XCFunctional | None = None,
        mesh: Mesh3D | None = None,
        padding: float = 9.0,
        cells_per_axis: int | tuple[int, int, int] = 5,
        degree: int = 5,
        grading_ratio: float = 2.0,
        nstates: int | None = None,
        kpoints: list[tuple[tuple[float, float, float], float]] | None = None,
        spin_polarized: bool = False,
        options: SCFOptions | None = None,
        ledger=None,
        nonlocal_projectors=None,
    ) -> None:
        self.xc = xc if xc is not None else LDA()
        if mesh is None:
            mesh, config = auto_mesh(
                config, padding=padding, cells_per_axis=cells_per_axis,
                degree=degree, grading_ratio=grading_ratio,
            )
        self.mesh = mesh
        self.config = config
        n_e = config.n_electrons
        if nstates is None:
            base = int(np.ceil(n_e / (1.0 if spin_polarized else 2.0)))
            nstates = base + max(4, int(np.ceil(0.15 * base)))
        self.driver = SCFDriver(
            mesh,
            config,
            self.xc,
            nstates=nstates,
            kpoints=kpoints,
            spin_polarized=spin_polarized,
            options=options,
            ledger=ledger,
            nonlocal_projectors=nonlocal_projectors,
        )

    @property
    def options(self) -> SCFOptions:
        return self.driver.options

    def run(
        self,
        rho0: np.ndarray | None = None,
        initial_polarization: float = 0.0,
        resume_from: str | None = None,
    ) -> SCFResult:
        """Run the SCF to convergence and return the ground state.

        ``resume_from`` continues from a mid-run checkpoint (see
        :func:`repro.core.io.save_scf_state`), reproducing the
        uninterrupted run bit for bit.
        """
        return self.driver.run(
            rho0=rho0,
            initial_polarization=initial_polarization,
            resume_from=resume_from,
        )

    def close(self) -> None:
        """Release backend resources (process-rank worker fleets)."""
        self.driver.close()

    def __enter__(self) -> "DFTCalculation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def homo_lumo_gap(result: SCFResult) -> float:
    """HOMO-LUMO gap (Ha) from the occupation-resolved spectrum."""
    homo, lumo = -np.inf, np.inf
    for evals, occ in zip(result.eigenvalues, result.occupations):
        filled = np.asarray(occ) > 0.5 * np.max(occ)
        if filled.any():
            homo = max(homo, float(np.max(np.asarray(evals)[filled])))
        if (~filled).any():
            lumo = min(lumo, float(np.min(np.asarray(evals)[~filled])))
    return lumo - homo
