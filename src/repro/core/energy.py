"""Total (free) energy assembly for the Kohn-Sham ground state.

Both the self-consistent Kohn-Sham energy and the Harris-Foulkes estimate
evaluate

.. math::

    E[\\rho] = \\sum_{k\\sigma i} w_k f_i \\epsilon_i
        - \\int \\sum_s \\rho_s v_{eff}^s
        + \\tfrac12 \\int (\\rho - \\rho_c) v_{tot}
        - E_{self} + E_{xc}[\\rho],

with the Mermin free energy ``F = E - T S``.  The eigenvalues ``epsilon_i``
come from a Hamiltonian built from some input potential ``v_in``, and the
double-counting term must use that same ``v_in``: then the band energy minus
``int rho v_in`` is the kinetic (plus nonlocal) energy of the orbitals, and
``F`` is stationary in the density error (``E`` alone is not once the
smearing gives fractional occupations).  The SCF evaluates it twice:

* in the loop, Harris-Foulkes: every term at the iteration's input density
  (no extra Poisson solve);
* once at the end, the Kohn-Sham energy: the electrostatic and XC terms at
  the output density, the double counting still with ``v_in``.

Pairing the eigenvalues with the *output* density's potential instead leaves
an error first order in ``rho_out - rho_in``: 1.5e-5 Ha on H2O at the
default density tolerance, against 5e-11 for the consistent pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EnergyBreakdown", "total_energy"]


@dataclass
class EnergyBreakdown:
    """Energy components in Hartree."""

    band: float  #: occupation-weighted eigenvalue sum
    potential_correction: float  #: -int rho*v_eff (double-counting removal)
    electrostatic: float  #: (1/2) int (rho-rho_c) v_tot - E_self
    xc: float  #: E_xc[rho]
    entropy: float  #: smearing entropy S (dimensionless)
    temperature: float  #: k_B T (Ha)

    @property
    def total(self) -> float:
        """Internal energy E."""
        return self.band + self.potential_correction + self.electrostatic + self.xc

    @property
    def free_energy(self) -> float:
        """Mermin free energy F = E - T S."""
        return self.total - self.temperature * self.entropy


def total_energy(
    mesh,
    eigenvalues: list[np.ndarray],
    occupations: list[np.ndarray],
    weights: list[float],
    rho_spin: np.ndarray,
    v_eff_spin: np.ndarray,
    v_tot: np.ndarray,
    rho_core: np.ndarray,
    self_energy: float,
    exc: float,
    entropy: float,
    temperature: float,
) -> EnergyBreakdown:
    """Assemble the energy breakdown from SCF quantities.

    ``v_eff_spin`` is (nnodes, 2), the per-spin effective potential that was
    in the Hamiltonian producing ``eigenvalues`` -- never the potential of
    ``rho_spin`` when that is another density; ``rho_spin`` (nnodes, 2) is
    the density at which the functional is evaluated, and ``v_tot`` and
    ``exc`` are computed from it.
    """
    band = float(
        sum(
            w * float(np.dot(np.asarray(f, float), np.asarray(e, float)))
            for e, f, w in zip(eigenvalues, occupations, weights)
        )
    )
    rho_tot = rho_spin.sum(axis=1)
    pot_corr = -float(mesh.integrate(np.einsum("is,is->i", rho_spin, v_eff_spin)))
    es = 0.5 * float(mesh.integrate((rho_tot - rho_core) * v_tot)) - self_energy
    return EnergyBreakdown(
        band=band,
        potential_correction=pot_corr,
        electrostatic=es,
        xc=exc,
        entropy=entropy,
        temperature=temperature,
    )
