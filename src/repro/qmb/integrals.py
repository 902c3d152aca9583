"""One- and two-electron integrals over finite-element orbitals.

The QMB (FCI) reference needs the second-quantized Hamiltonian in an
orthonormal spatial-orbital basis {phi_p}; here the orbitals come from a
Kohn-Sham solve on the spectral-element mesh and the integrals are
evaluated with the same machinery:

* ``h_pq = <p| -1/2 lap + v_N |q>`` via the cell-level stiffness and the
  analytic soft-pseudopotential,
* ``(pq|rs) = int int phi_p phi_q |r-r'|^{-1} phi_r phi_s`` by solving one
  FE Poisson problem per (p, q) pair density with multipole boundary
  conditions, then one GEMM of the pair potentials against the weighted pair
  densities (chemists' notation; 8-fold permutational symmetry exploited).
"""

from __future__ import annotations

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.fem.assembly import CellStiffness
from repro.fem.mesh import Mesh3D
from repro.fem.poisson import PoissonSolver, multipole_boundary_values

__all__ = ["OrbitalIntegrals", "compute_integrals"]


class OrbitalIntegrals:
    """Container: core Hamiltonian h (n, n), ERIs (n, n, n, n), E_core."""

    def __init__(self, h: np.ndarray, eri: np.ndarray, e_core: float) -> None:
        self.h = np.asarray(h, dtype=float)
        self.eri = np.asarray(eri, dtype=float)
        self.e_core = float(e_core)
        self.n_orb = self.h.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<OrbitalIntegrals n_orb={self.n_orb} e_core={self.e_core:.6f}>"


def compute_integrals(
    mesh: Mesh3D,
    config: AtomicConfiguration,
    orbitals_nodes: np.ndarray,
    poisson_tol: float = 1e-10,
) -> OrbitalIntegrals:
    """Integrals for orthonormal orbitals given as full-node values.

    ``orbitals_nodes`` has shape (nnodes, n_orb) and must be L2-orthonormal
    on the mesh (Kohn-Sham eigenvectors mapped to nodes satisfy this).
    """
    phi = np.asarray(orbitals_nodes, dtype=float)
    n_orb = phi.shape[1]
    w = mesh.mass_diag

    # orthonormality sanity check
    S = phi.T @ (w[:, None] * phi)
    if not np.allclose(S, np.eye(n_orb), atol=1e-6):
        raise ValueError("orbitals are not orthonormal on the mesh")

    # --- core Hamiltonian -------------------------------------------------
    stiff = CellStiffness(mesh)
    Kphi = stiff.apply_full(phi)
    v_n = config.external_potential(mesh.node_coords)
    h = 0.5 * (phi.T @ Kphi) + phi.T @ (w[:, None] * (v_n[:, None] * phi))
    h = 0.5 * (h + h.T)

    # --- electron repulsion integrals --------------------------------------
    # pair densities phi_p phi_q for p >= q, in (p, q) lexicographic order
    ip, iq = np.tril_indices(n_orb)
    pairs = phi.T[ip] * phi.T[iq]
    solver = PoissonSolver(mesh)
    pots = np.empty_like(pairs)
    for k, rho_pq in enumerate(pairs):
        bc = multipole_boundary_values(mesh, rho_pq)
        pots[k] = solver.solve(rho_pq, boundary_values=bc, tol=poisson_tol).potential
    # J[k, l] = int v_k phi_r phi_s, pair l = (r, s); (pq|rs) takes the
    # potential of the later pair of the two, so the lower triangle holds all
    J = pots @ (w * pairs).T
    J = np.tril(J) + np.tril(J, -1).T
    pair = np.empty((n_orb, n_orb), dtype=np.intp)
    pair[ip, iq] = pair[iq, ip] = np.arange(ip.size)
    eri = J[pair[:, :, None, None], pair[None, None, :, :]]
    return OrbitalIntegrals(h=h, eri=eri, e_core=config.nuclear_repulsion())
