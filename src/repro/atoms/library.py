"""The model-world molecule library: geometries and FCI sectors, data only.

Importing this module loads no solver, so validating a job spec or listing
the molecules costs nothing; :mod:`repro.pipeline` re-exports the table.
"""

from __future__ import annotations

__all__ = ["MOLECULE_LIBRARY"]

#: geometries (Bohr) and FCI sectors of the model-world molecule library;
#: (symbols, positions, n_alpha, n_beta, n_orbitals)
MOLECULE_LIBRARY: dict[str, tuple] = {
    "H2": (["H", "H"], [[0, 0, 0], [1.4, 0, 0]], 1, 1, 6),
    "H2_stretched": (["H", "H"], [[0, 0, 0], [2.2, 0, 0]], 1, 1, 6),
    "LiH": (["Li", "H"], [[0, 0, 0], [3.0, 0, 0]], 2, 2, 6),
    "LiH_stretched": (["Li", "H"], [[0, 0, 0], [3.8, 0, 0]], 2, 2, 6),
    "Li": (["Li"], [[0, 0, 0]], 2, 1, 6),
    "N": (["N"], [[0, 0, 0]], 3, 2, 7),
    "He": (["He"], [[0, 0, 0]], 1, 1, 6),
    "Li2": (["Li", "Li"], [[0, 0, 0], [5.05, 0, 0]], 3, 3, 7),
    "Be": (["Be"], [[0, 0, 0]], 2, 2, 6),
    "H2O": (
        ["O", "H", "H"],
        [[0, 0, 0], [1.43, 1.11, 0], [-1.43, 1.11, 0]],
        4,
        4,
        7,
    ),
}
