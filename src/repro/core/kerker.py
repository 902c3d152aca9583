"""Kerker preconditioning of the SCF density residual.

Metallic systems (the paper's Mg alloys and quasicrystals) suffer from
charge sloshing: long-wavelength components of the density residual are
amplified by the Hartree kernel, destabilizing the SCF as the cell grows.
The Kerker preconditioner damps exactly those components,

.. math::

    F_{prec}(q) = \\frac{q^2}{q^2 + k_0^2} F(q)
    \\quad\\Longleftrightarrow\\quad
    F_{prec} = F - k_0^2 (-\\nabla^2 + k_0^2)^{-1} F,

implemented here in real space with the mesh's fast-diagonalization
factorisation (:class:`repro.fem.fdm.FastDiagonalization`): the GLL mass is
``M = W_x (x) W_y (x) W_z``, so the shifted Helmholtz problem
``(K + k_0^2 M) u = M F`` has the same separable eigenbasis as the Poisson
operator and is solved exactly, without iteration, once per mixing step.

The SCF preconditions every fully periodic cell at :data:`KERKER_K0`,
1 Å⁻¹, and mixes there at twice the Anderson step of a cell with a Dirichlet
axis (:mod:`repro.core.mixing`).  Molecules and cells with a Dirichlet axis
mix unpreconditioned.  Measured on the Mg cells of EXPERIMENTS.md: the
doubled step takes Mg32 from 12 iterations to 17 without Kerker and to 8
with it; k0 from 0.3 to 0.6 Bohr⁻¹ stays within one iteration of that on
Mg4 to Mg64, and 0.8 costs one or two more.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Mesh3D

__all__ = ["KERKER_K0", "KerkerPreconditioner"]

#: screening wavevector of the periodic SCF: 1 Å⁻¹ in Bohr⁻¹
KERKER_K0 = 0.529177210903


class KerkerPreconditioner:
    """Real-space Kerker damping of long-wavelength residual components.

    Parameters
    ----------
    mesh:
        The calculation's spectral-element mesh.
    k0:
        Screening wavevector (Bohr^-1); ~0.5-1.0 for typical metals.
    """

    def __init__(self, mesh: Mesh3D, k0: float = KERKER_K0) -> None:
        if k0 <= 0:
            raise ValueError("k0 must be positive")
        self.mesh = mesh
        self.k0 = float(k0)

    def __call__(self, residual_full: np.ndarray) -> np.ndarray:
        """Precondition a full-node residual field (or (nnodes, m) stack)."""
        r = np.asarray(residual_full, dtype=float)
        if r.ndim == 2:
            return np.stack([self(r[:, j]) for j in range(r.shape[1])], axis=1)
        mesh = self.mesh
        free = mesh.free
        out = r.copy()
        out[free] -= self.k0**2 * mesh.fdm.solve(
            (mesh.mass_diag * r)[free], shift=self.k0**2
        )
        return out
