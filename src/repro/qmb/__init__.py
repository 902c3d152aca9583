"""Quantum many-body substrate: FCI over finite-element orbital bases."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "coupled_cluster": (
            "CCDResult", "RHFResult", "ccd", "ccsd", "mp2_energy",
            "restricted_hartree_fock",
        ),
        "fci": ("FCIResult", "FCISolver", "density_from_rdm"),
        "fock": ("creation_operator", "fock_space_ground_state"),
        "integrals": ("OrbitalIntegrals", "compute_integrals"),
        "slater": ("determinants", "excitation_sign", "excite", "occ_list"),
    },
)
