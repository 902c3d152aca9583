"""Inverse DFT: exact XC potentials from QMB densities (paper Sec 5.1)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "adjoint": ("adjoint_rhs", "potential_gradient", "solve_adjoint"),
        "inverse": ("InverseDFT", "InverseDFTResult", "exact_xc_energy"),
        "minres": ("BlockMinresResult", "block_minres"),
    },
)
