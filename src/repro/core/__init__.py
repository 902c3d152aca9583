"""Core DFT-FE-MLXC solver: ChFES eigensolver, SCF, public API."""

from .bands import band_structure, kpath
from .chebyshev import chebyshev_filter, filter_block, lanczos_upper_bound
from .density import atomic_guess_density, density_from_channels, orbitals_to_nodes
from .dos import density_of_states, integrated_dos
from .energy import EnergyBreakdown, total_energy
from .forces import RelaxationResult, hellmann_feynman_forces, nonlocal_forces, relax
from .hamiltonian import Electrostatics, gaussian_self_energy
from .io import load_initial_rho
from .kerker import KerkerPreconditioner
from .ksdft import DFTCalculation, auto_mesh, homo_lumo_gap
from .mixing import AndersonMixer
from .occupations import OccupationSet, fermi_dirac, find_fermi_level
from .scf import KSChannel, SCFDriver, SCFOptions, SCFResult
from .subspace import (
    adjust_carried_hx,
    batched_gram,
    batched_rotate,
    cholesky_orthonormalize,
    fused_cholgs_rr,
    rayleigh_ritz,
)

__all__ = [
    "AndersonMixer",
    "DFTCalculation",
    "Electrostatics",
    "EnergyBreakdown",
    "KSChannel",
    "KerkerPreconditioner",
    "OccupationSet",
    "RelaxationResult",
    "SCFDriver",
    "SCFOptions",
    "SCFResult",
    "adjust_carried_hx",
    "atomic_guess_density",
    "band_structure",
    "auto_mesh",
    "batched_gram",
    "batched_rotate",
    "chebyshev_filter",
    "cholesky_orthonormalize",
    "density_from_channels",
    "density_of_states",
    "fermi_dirac",
    "filter_block",
    "find_fermi_level",
    "fused_cholgs_rr",
    "gaussian_self_energy",
    "hellmann_feynman_forces",
    "integrated_dos",
    "homo_lumo_gap",
    "kpath",
    "load_initial_rho",
    "nonlocal_forces",
    "lanczos_upper_bound",
    "orbitals_to_nodes",
    "relax",
    "rayleigh_ritz",
    "total_energy",
]
