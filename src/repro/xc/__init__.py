"""Exchange-correlation functionals: LDA (L1), PBE (L2), hybrid (L3), MLXC (L4+)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "base": ("RHO_FLOOR", "XCFunctional", "XCOutput"),
        "gga": ("PBE",),
        "hybrid": ("PBE0", "hf_exchange_energy"),
        "lda": ("LDA",),
        "mlxc": ("MLXC",),
    },
)
