"""Structured 3D spectral-element mesh with adaptive grading and Bloch phases.

The mesh is a tensor product of three 1D cell subdivisions (which may be
*nonuniform* — geometric grading toward atoms provides the paper's "spatially
adaptive" resolution while keeping the tensor structure that enables the
cell-level batched linear algebra).  Each hexahedral cell carries a degree-p
GLL nodal basis (:mod:`repro.fem.cell`); nodes on shared faces are common to
the adjacent cells (C^0 continuity, which the paper highlights as essential
for cusp handling in inverse DFT).

Periodic axes wrap the connectivity; nonzero Bloch vectors attach complex
phase factors ``exp(2*pi*i*k)`` to wrapped entries, giving the k-point
sampled complex path whose factor-4 FLOP cost the paper accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cell import ReferenceCell, reference_cell
from .fdm import FastDiagonalization
from .scatter import ScatterMap

__all__ = ["Mesh3D", "uniform_mesh", "graded_edges"]


def graded_edges(
    length: float, ncells: int, center: float | None = None, ratio: float = 1.0
) -> np.ndarray:
    """1D cell edges on [0, length], geometrically graded toward ``center``.

    ``ratio`` is the size ratio between the largest (outer) and smallest
    (inner) cell; ``ratio == 1`` gives a uniform subdivision.  Used to mimic
    the paper's adaptive refinement around nuclei.
    """
    if ncells < 1:
        raise ValueError("need at least one cell")
    if ratio < 1.0:
        raise ValueError("ratio must be >= 1")
    if center is None or ratio == 1.0:
        return np.linspace(0.0, length, ncells + 1)
    # Build relative cell widths: smallest near `center`, growing outward.
    mids = (np.arange(ncells) + 0.5) / ncells * length
    dist = np.abs(mids - center)
    dist = dist / max(dist.max(), 1e-300)
    widths = 1.0 + (ratio - 1.0) * dist
    widths *= length / widths.sum()
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    edges[-1] = length
    return edges


@dataclass
class Mesh3D:
    """Tensor-product hexahedral spectral-element mesh.

    Parameters
    ----------
    edges:
        Three 1D arrays of cell edges (each of length ``ncells_axis + 1``)
        defining the subdivision per axis; ``edges[a][0] == 0``.
    degree:
        Polynomial degree ``p`` of the GLL nodal basis.
    pbc:
        Per-axis periodicity flags.  Nonperiodic axes impose homogeneous (or
        lifted) Dirichlet conditions at the outer boundary.
    """

    edges: tuple[np.ndarray, np.ndarray, np.ndarray]
    degree: int
    pbc: tuple[bool, bool, bool] = (False, False, False)
    ref: ReferenceCell = field(init=False)

    def __post_init__(self) -> None:
        self.edges = tuple(np.asarray(e, dtype=float) for e in self.edges)
        for e in self.edges:
            if e.ndim != 1 or e.size < 2 or np.any(np.diff(e) <= 0):
                raise ValueError("each edges array must be increasing, size >= 2")
            if abs(e[0]) > 1e-12:
                raise ValueError("edges must start at 0")
        self.ref = reference_cell(self.degree)

    # ----- basic sizes -------------------------------------------------
    @property
    def lengths(self) -> np.ndarray:
        return np.array([e[-1] for e in self.edges])

    @property
    def ncells_axis(self) -> tuple[int, int, int]:
        return tuple(e.size - 1 for e in self.edges)

    @property
    def ncells(self) -> int:
        nx, ny, nz = self.ncells_axis
        return nx * ny * nz

    @property
    def nodes_per_cell(self) -> int:
        return self.ref.nodes_per_cell

    @cached_property
    def nnodes_axis(self) -> tuple[int, int, int]:
        p = self.degree
        return tuple(
            (e.size - 1) * p + (0 if per else 1)
            for e, per in zip(self.edges, self.pbc)
        )

    @property
    def nnodes(self) -> int:
        nx, ny, nz = self.nnodes_axis
        return nx * ny * nz

    # ----- axis-level node data ----------------------------------------
    @cached_property
    def _axis_nodes(self) -> list[np.ndarray]:
        """Physical node coordinates along each axis."""
        out = []
        xi = self.ref.nodes1d  # on [-1, 1]
        p = self.degree
        for a, (e, per) in enumerate(zip(self.edges, self.pbc)):
            nc = e.size - 1
            n = self.nnodes_axis[a]
            coords = np.empty(n)
            for c in range(nc):
                lo, hi = e[c], e[c + 1]
                mapped = lo + (xi + 1.0) * 0.5 * (hi - lo)
                start = c * p
                count = p if (per and c == nc - 1) else p + 1
                coords[start : start + count] = mapped[:count]
            out.append(coords)
        return out

    @cached_property
    def _axis_conn(self) -> list[np.ndarray]:
        """Per-axis connectivity: (ncells_a, p+1) global axis-node indices."""
        out = []
        p = self.degree
        for a, (e, per) in enumerate(zip(self.edges, self.pbc)):
            nc = e.size - 1
            n = self.nnodes_axis[a]
            idx = np.arange(nc)[:, None] * p + np.arange(p + 1)[None, :]
            if per:
                idx = idx % n
            out.append(idx)
        return out

    @cached_property
    def _axis_wrap(self) -> list[np.ndarray]:
        """Boolean per-axis flags marking connectivity entries that wrapped."""
        out = []
        p = self.degree
        for a, (e, per) in enumerate(zip(self.edges, self.pbc)):
            nc = e.size - 1
            n = self.nnodes_axis[a]
            raw = np.arange(nc)[:, None] * p + np.arange(p + 1)[None, :]
            out.append(raw >= n if per else np.zeros_like(raw, dtype=bool))
        return out

    # ----- global node data ---------------------------------------------
    @cached_property
    def node_coords(self) -> np.ndarray:
        """(nnodes, 3) Cartesian coordinates of the global nodes."""
        ax, ay, az = self._axis_nodes
        X, Y, Z = np.meshgrid(ax, ay, az, indexing="ij")
        return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    @cached_property
    def conn(self) -> np.ndarray:
        """(ncells, nodes_per_cell) global node index per cell-local node."""
        cx, cy, cz = self._axis_conn
        nx, ny, nz = self.nnodes_axis
        gx = cx[:, None, None, :, None, None]
        gy = cy[None, :, None, None, :, None]
        gz = cz[None, None, :, None, None, :]
        g = (gx * ny + gy) * nz + gz
        ncx, ncy, ncz = self.ncells_axis
        n1 = self.degree + 1
        return np.ascontiguousarray(
            np.broadcast_to(g, (ncx, ncy, ncz, n1, n1, n1)).reshape(
                self.ncells, self.nodes_per_cell
            )
        )

    @cached_property
    def cell_sizes(self) -> np.ndarray:
        """(ncells, 3) physical extent of each cell."""
        hx, hy, hz = (np.diff(e) for e in self.edges)
        H = np.stack(
            np.meshgrid(hx, hy, hz, indexing="ij"), axis=-1
        ).reshape(self.ncells, 3)
        return H

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """(nnodes,) True at Dirichlet boundary nodes (nonperiodic axes)."""
        masks = []
        for a, per in enumerate(self.pbc):
            n = self.nnodes_axis[a]
            m = np.zeros(n, dtype=bool)
            if not per:
                m[0] = m[-1] = True
            masks.append(m)
        bx, by, bz = masks
        M = (
            bx[:, None, None]
            | by[None, :, None]
            | bz[None, None, :]
        )
        return M.ravel()

    @cached_property
    def free(self) -> np.ndarray:
        """Indices of non-Dirichlet (free) nodes — the solution DoFs."""
        return np.nonzero(~self.boundary_mask)[0]

    @cached_property
    def full_to_free(self) -> np.ndarray:
        """Map full node index -> free DoF index (-1 at boundary nodes)."""
        m = np.full(self.nnodes, -1, dtype=np.int64)
        m[self.free] = np.arange(self.free.size)
        return m

    @property
    def ndof(self) -> int:
        """Number of free degrees of freedom."""
        return self.free.size

    @cached_property
    def scatter_map(self) -> ScatterMap:
        """Precompiled cell→node scatter over the connectivity (unit weights).

        Built once per mesh and shared by every unweighted assembly loop
        (stiffness apply, mass assembly, gradient recovery); bit-for-bit
        identical to the ``np.add.at`` reference on zero-initialized
        outputs.
        """
        return ScatterMap(self.conn, self.nnodes)

    @cached_property
    def _scatter_map3(self) -> ScatterMap:
        """Scatter of three stacked per-axis contribution sets at once.

        The indices are the connectivity repeated three times, so scattering
        the concatenated (x, y, z) contributions replays the three
        sequential ``np.add.at`` calls of the reference divergence in their
        exact addition order (axis 0 entries before axis 1 before axis 2).
        """
        flat = self.conn.ravel()
        return ScatterMap(np.concatenate([flat, flat, flat]), self.nnodes)

    @cached_property
    def fdm(self) -> FastDiagonalization:
        """Separable exact inverse of ``K + shift*M`` over the free DoFs.

        Built once per mesh (three small ``eigh`` calls) and shared by the
        Poisson solver and the Kerker preconditioner.
        """
        return FastDiagonalization(self)

    @cached_property
    def mass_diag(self) -> np.ndarray:
        """Assembled (diagonal) global mass matrix over *all* nodes."""
        w3 = self.ref.mass_diag((2.0, 2.0, 2.0))  # reference weights w_i w_j w_k
        vol = np.prod(self.cell_sizes, axis=1) / 8.0
        out = np.zeros(self.nnodes)
        self.scatter_map.add_to((vol[:, None] * w3[None, :]).ravel(), out)
        return out

    def axis_phases(self, axis: int, k: float) -> np.ndarray | None:
        """(ncells_a, p+1) Bloch gather phases of one axis, ``exp(2*pi*i*k)``
        wherever its connectivity wrapped; None where ``k`` is zero."""
        if abs(k) <= 1e-14:
            return None
        if not self.pbc[axis]:
            raise ValueError("nonzero k along a non-periodic axis")
        return np.where(self._axis_wrap[axis], np.exp(2j * np.pi * k), 1.0 + 0j)

    def bloch_phases(self, kfrac: tuple[float, float, float]) -> np.ndarray | None:
        """(ncells, npc) complex gather phases for the reduced Bloch vector
        ``kfrac`` (fractional reciprocal coordinates): the product of the
        three :meth:`axis_phases`.  None at the Gamma point (all unity)."""
        phases = [self.axis_phases(a, k) for a, k in enumerate(kfrac)]
        if all(p is None for p in phases):
            return None
        px, py, pz = (
            np.ones(w.shape, dtype=complex) if p is None else p
            for p, w in zip(phases, self._axis_wrap)
        )
        ph = (
            px[:, None, None, :, None, None]
            * py[None, :, None, None, :, None]
            * pz[None, None, :, None, None, :]
        )
        ncx, ncy, ncz = self.ncells_axis
        n1 = self.degree + 1
        return np.ascontiguousarray(
            np.broadcast_to(ph, (ncx, ncy, ncz, n1, n1, n1)).reshape(
                self.ncells, self.nodes_per_cell
            )
        )

    # ----- integration and differential operators ------------------------
    def integrate(self, values: np.ndarray) -> float | complex | np.ndarray:
        """GLL-quadrature integral of nodal field(s) over the domain.

        ``values`` has shape (nnodes,) or (nnodes, m).
        """
        if values.shape[0] != self.nnodes:
            raise ValueError("field must be defined on all nodes")
        return np.tensordot(self.mass_diag, values, axes=(0, 0))

    @cached_property
    def _grad_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.ref.gradient_operators((2.0, 2.0, 2.0))

    def gradient(self, field: np.ndarray) -> np.ndarray:
        """Mass-averaged nodal gradient of a full-node scalar field.

        Returns (nnodes, 3).  The element-wise spectral derivative is
        discontinuous across faces; contributions are mass-weighted and
        averaged at shared nodes (standard gradient recovery).
        """
        Gx, Gy, Gz = self._grad_matrices
        Xc = field[self.conn]  # (ncells, npc)
        h = self.cell_sizes
        w3 = self.ref.mass_diag((2.0, 2.0, 2.0))
        vol = np.prod(h, axis=1) / 8.0
        wcell = vol[:, None] * w3[None, :]
        out = np.zeros((self.nnodes, 3), dtype=field.dtype)
        for a, G in enumerate((Gx, Gy, Gz)):
            d = (Xc @ G.T) * (2.0 / h[:, a])[:, None]
            self.scatter_map.add_to((wcell * d).ravel(), out[:, a])
        out /= self.mass_diag[:, None]
        return out

    def divergence(self, vec: np.ndarray) -> np.ndarray:
        """Mass-averaged nodal divergence of a (nnodes, 3) vector field."""
        out = np.zeros(self.nnodes, dtype=vec.dtype)
        Gx, Gy, Gz = self._grad_matrices
        h = self.cell_sizes
        w3 = self.ref.mass_diag((2.0, 2.0, 2.0))
        vol = np.prod(h, axis=1) / 8.0
        wcell = vol[:, None] * w3[None, :]
        parts = []
        for a, G in enumerate((Gx, Gy, Gz)):
            Xc = vec[self.conn, a]
            d = (Xc @ G.T) * (2.0 / h[:, a])[:, None]
            parts.append((wcell * d).ravel())
        # one scatter over the thrice-repeated connectivity keeps the exact
        # per-node addition order of three sequential per-axis scatters
        self._scatter_map3.add_to(np.concatenate(parts), out)
        return out / self.mass_diag

    def divergence_adjoint(self, a_field: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`divergence`: returns (nnodes, 3) such that
        ``sum_I a_I div(u)_I == sum_I adj(a)_I . u_I`` for any vector field
        ``u`` (used by the MLXC trainer to backpropagate the potential loss
        through the weak-divergence term).
        """
        Gx, Gy, Gz = self._grad_matrices
        h = self.cell_sizes
        w3 = self.ref.mass_diag((2.0, 2.0, 2.0))
        vol = np.prod(h, axis=1) / 8.0
        wcell = vol[:, None] * w3[None, :]
        t = a_field / self.mass_diag
        Tc = t[self.conn]  # gather (ncells, npc)
        out = np.zeros((self.nnodes, 3), dtype=a_field.dtype)
        for a, G in enumerate((Gx, Gy, Gz)):
            contrib = ((wcell * Tc) @ G) * (2.0 / h[:, a])[:, None]
            self.scatter_map.add_to(contrib.ravel(), out[:, a])
        return out


def uniform_mesh(
    lengths: tuple[float, float, float],
    ncells: tuple[int, int, int],
    degree: int,
    pbc: tuple[bool, bool, bool] = (False, False, False),
) -> Mesh3D:
    """Convenience constructor for a uniform box mesh."""
    edges = tuple(
        np.linspace(0.0, L, n + 1) for L, n in zip(lengths, ncells)
    )
    return Mesh3D(edges=edges, degree=degree, pbc=pbc)
