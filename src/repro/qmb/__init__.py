"""Quantum many-body substrate: FCI over finite-element orbital bases."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "fci": ("FCIResult", "FCISolver", "density_from_rdm"),
        "integrals": ("OrbitalIntegrals", "compute_integrals"),
        "slater": ("determinants", "excitation_sign", "excite", "occ_list"),
    },
)
