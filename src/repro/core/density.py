"""Electron density from Kohn-Sham orbitals (Algorithm 1's "DC" step).

Wavefunctions live in the Löwdin-orthonormalized basis on the free DoFs; the
nodal value of orbital ``i`` is ``u = D^{-1/2} psi_tilde`` (zero at Dirichlet
boundary nodes), so the density at a node is simply the occupation-weighted
sum of ``|u|^2`` — an O(M N) kernel the paper labels "DC" in Table 3.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Mesh3D
from repro.hpc.flops import gemm_flops
from repro.obs import kernel_region

__all__ = [
    "orbitals_to_nodes",
    "density_from_channels",
    "gaussian_superposition",
    "atomic_guess_density",
]


def orbitals_to_nodes(mesh: Mesh3D, psi_tilde: np.ndarray) -> np.ndarray:
    """Map Löwdin-basis orbital coefficients to full-node values."""
    out = np.zeros((mesh.nnodes,) + psi_tilde.shape[1:], dtype=psi_tilde.dtype)
    dinv = 1.0 / np.sqrt(mesh.mass_diag[mesh.free])
    out[mesh.free] = dinv[:, None] * psi_tilde if psi_tilde.ndim == 2 else dinv * psi_tilde
    return out


def density_from_channels(
    mesh: Mesh3D,
    channels,
    occupations: list[np.ndarray],
    ledger=None,
) -> np.ndarray:
    """Spin density (nnodes, 2) from per-channel orbitals and occupations.

    ``channels`` is a sequence with attributes ``psi`` (ndof, nstates),
    ``weight`` (k-point weight) and ``spin`` (0 or 1; spin-restricted
    channels pass spin=None and their density is split evenly).
    """
    rho = np.zeros((mesh.nnodes, 2), dtype=float)
    dinv2 = np.zeros(mesh.nnodes, dtype=float)
    dinv2[mesh.free] = 1.0 / mesh.mass_diag[mesh.free]
    with kernel_region("DC", ledger):
        for ch, occ in zip(channels, occupations):
            psi = ch.psi
            dens_free = np.einsum(
                "ij,j->i", np.abs(psi) ** 2, np.asarray(occ, dtype=float)
            )
            if ledger is not None:
                is_c = np.issubdtype(psi.dtype, np.complexfloating)
                ledger.add("DC", gemm_flops(psi.shape[0], 1, psi.shape[1], is_c))
            full = np.zeros(mesh.nnodes, dtype=float)
            full[mesh.free] = dens_free
            full *= dinv2 * ch.weight
            if ch.spin is None:
                rho[:, 0] += 0.5 * full
                rho[:, 1] += 0.5 * full
            else:
                rho[:, ch.spin] += full
    return rho


def gaussian_superposition(mesh: Mesh3D, config, sigma_of) -> np.ndarray:
    """Nodal sum, over atoms and their periodic images, of the Gaussian of
    width ``sigma_of(element)`` carrying that element's valence charge.

    The mesh is a Cartesian tensor product, so ``exp(-|r - R|^2 / 2 sigma^2)``
    is ``g_x (x) g_y (x) g_z`` over the axis nodes for any centre ``R`` (sheared
    lattices included): per atom, three ``(images, n_a)`` factor tables and one
    GEMM ``F_x^T (F_y . F_z)``.  Accumulating atom by atom keeps the extra
    memory at ``images * n_y * n_z``, independent of the atom count.
    """
    ax, ay, az = mesh._axis_nodes
    shifts = config._image_shifts()
    rho = np.zeros((ax.size, ay.size * az.size), dtype=float)
    for el, pos in zip(config.elements, config.positions):
        sigma = sigma_of(el)
        centres = pos + shifts
        fx, fy, fz = (
            np.exp(-((nodes - centres[:, a, None]) ** 2) / (2.0 * sigma**2))
            for a, nodes in enumerate((ax, ay, az))
        )
        fx *= el.valence / (2.0 * np.pi * sigma**2) ** 1.5
        rho += fx.T @ (fy[:, :, None] * fz[:, None, :]).reshape(len(shifts), -1)
    return rho.ravel()


def atomic_guess_density(
    mesh: Mesh3D, config, polarization: float = 0.0, width_scale: float = 1.6
) -> np.ndarray:
    """Superposition-of-atoms initial spin density, normalized exactly.

    Each atom contributes a Gaussian carrying its valence charge with width
    ``width_scale * r_c``; the total is rescaled so the mesh integral equals
    the electron count, then split (1+p)/2 : (1-p)/2 between spins.
    """
    rho = gaussian_superposition(mesh, config, lambda el: width_scale * el.r_c)
    total = float(mesh.integrate(rho))
    rho *= config.n_electrons / total
    p = float(np.clip(polarization, -1.0, 1.0))
    return np.stack([0.5 * (1 + p) * rho, 0.5 * (1 - p) * rho], axis=1)
