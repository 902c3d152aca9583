"""Materials substrate: lattices, quasicrystals, defects, benchmark systems."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "defects": (
            "apply_screw_dislocation", "edge_dislocation_displacement",
            "reflection_twin", "screw_dislocation_displacement", "solute_at_core",
            "substitute_solutes",
        ),
        "diffraction": (
            "radial_peak_profile", "rotational_symmetry_score", "structure_factor",
        ),
        "lattice": ("MG_A", "MG_C", "hcp_orthorhombic", "supercell"),
        "quasicrystal": (
            "TAU", "cut_and_project", "icosahedral_projectors", "ybcd_nanoparticle",
        ),
        "systems": ("BenchmarkSystem", "SYSTEM_BUILDERS", "build_system", "kpoint_set"),
    },
)
