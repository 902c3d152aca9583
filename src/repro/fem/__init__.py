"""Spectral finite-element substrate (meshes, assembly, Poisson)."""

from .assembly import CellStiffness, KSOperator
from .cell import ReferenceCell, reference_cell
from .fdm import FastDiagonalization
from .interpolation import FieldInterpolator
from .mesh import Mesh3D, graded_edges, uniform_mesh
from .partition import Partition, process_grid
from .poisson import PoissonSolver, multipole_boundary_values
from .quadrature import gauss_legendre, gauss_lobatto_legendre
from .scatter import ScatterMap
from .workspace import Workspace

__all__ = [
    "CellStiffness",
    "FastDiagonalization",
    "FieldInterpolator",
    "KSOperator",
    "Mesh3D",
    "Partition",
    "PoissonSolver",
    "ReferenceCell",
    "ScatterMap",
    "Workspace",
    "gauss_legendre",
    "gauss_lobatto_legendre",
    "graded_edges",
    "multipole_boundary_values",
    "process_grid",
    "reference_cell",
    "uniform_mesh",
]
