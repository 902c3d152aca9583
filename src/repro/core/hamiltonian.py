"""Effective-potential construction: electrostatics + XC ("DH" and "EP").

The total electrostatic potential is obtained from a *single* Poisson solve
for the neutral charge ``rho - rho_core``, where ``rho_core`` is the sum of
the Gaussian core charges whose analytic potential is the soft local
pseudopotential of :mod:`repro.atoms.pseudo`.  This gives ``v_N + v_H``
together, works identically for isolated (multipole Dirichlet) and periodic
(zero-mean) systems, and makes the total energy expressible without Ewald
summation:

.. math::

    E = \\sum_i f_i\\epsilon_i - \\int \\sum_s \\rho_s v_{eff}^s
        + \\tfrac12\\int(\\rho-\\rho_c)\\,v_{tot} - E_{self} + E_{xc} - TS,

with the Gaussian self-energy ``E_self = sum_a Z_a^2 / (r_{c,a} sqrt(2 pi))``.
"""

from __future__ import annotations

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.fem.mesh import Mesh3D
from repro.fem.poisson import PoissonSolver, multipole_boundary_values
from repro.obs import kernel_region

from .density import gaussian_superposition

__all__ = ["Electrostatics", "gaussian_self_energy"]


def gaussian_self_energy(config: AtomicConfiguration) -> float:
    """Sum of Gaussian core self-energies, ``sum_a Z_a^2/(r_c,a sqrt(2 pi))``."""
    return sum(
        e.valence**2 / (e.r_c * np.sqrt(2.0 * np.pi)) for e in config.elements
    )


class Electrostatics:
    """Total electrostatic potential and energy for a given configuration."""

    def __init__(
        self, mesh: Mesh3D, config: AtomicConfiguration, ledger=None
    ) -> None:
        self.mesh = mesh
        self.config = config
        # guard against the classic footgun of pairing a prebuilt mesh with
        # an unshifted configuration: every atom must lie inside the domain
        # (with a little clearance from Dirichlet boundaries)
        lengths = mesh.lengths
        pos = config.positions
        for a in range(3):
            if config.pbc[a]:
                continue
            if np.any(pos[:, a] < 1e-9) or np.any(pos[:, a] > lengths[a] - 1e-9):
                raise ValueError(
                    f"atom positions leave the mesh domain along axis {a} "
                    f"(domain [0, {lengths[a]:.3f}]); pass the shifted "
                    "configuration returned by auto_mesh, or build the mesh "
                    "around these coordinates"
                )
        self.solver = PoissonSolver(mesh, ledger=ledger)
        self.ledger = ledger
        self.core_density = self._build_core_density()
        self.self_energy = gaussian_self_energy(config)

    def _build_core_density(self) -> np.ndarray:
        """Gaussian core charge density, renormalized to the exact valence.

        Renormalization removes the (small) quadrature error in the sampled
        Gaussians so that the Poisson problem sees an exactly neutral system.
        """
        mesh, config = self.mesh, self.config
        rho_c = gaussian_superposition(mesh, config, lambda el: el.r_c / np.sqrt(2.0))
        total = float(mesh.integrate(rho_c))
        target = float(config.n_electrons)
        if total <= 0:
            raise RuntimeError("core density vanished — mesh far from atoms?")
        return rho_c * (target / total)

    def solve(self, rho_total: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Return ``v_tot = v_N + v_H`` for electron density ``rho_total``.

        A pure function of ``rho_total``: no solver state survives the call.
        """
        net = rho_total - self.core_density
        with kernel_region("EP", self.ledger):
            bc = None
            if self.mesh.free.size != self.mesh.nnodes:
                bc = multipole_boundary_values(self.mesh, net)
            # v_tot is the potential *energy* of an electron: the Coulomb
            # field of the charge system (electrons negative, cores positive)
            # is -phi[net], and multiplying by the electron charge -1 gives
            # exactly the potential of `net` itself.
            res = self.solver.solve(net, boundary_values=bc, tol=tol)
        return res.potential

    def electrostatic_energy(self, rho_total: np.ndarray, v_tot: np.ndarray) -> float:
        """``(1/2) int (rho - rho_c) v_tot  -  E_self``.

        With ``v_tot`` the electron potential energy (potential of
        ``rho - rho_c``), the classical energy of the full charge system is
        ``(1/2) int n_charge phi = (1/2) int (rho - rho_c) v_tot``; removing
        the unphysical Gaussian self-interactions leaves the physical
        E_H + E_ext + E_nn(smeared).
        """
        net = rho_total - self.core_density
        return 0.5 * float(self.mesh.integrate(net * v_tot)) - self.self_energy
