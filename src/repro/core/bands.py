"""Post-SCF band structure along a k-path (non-self-consistent).

Given a converged ground state, the effective potential is frozen and the
Bloch eigenproblem is re-solved (multi-pass ChFES) at arbitrary reduced
k-vectors — the standard non-self-consistent band-structure workflow, run
by the SCF's own :func:`repro.core.scf.chfes_step`.
"""

from __future__ import annotations

import numpy as np

from repro.fem.assembly import KSOperator

from .scf import chfes_step

__all__ = ["band_structure", "kpath"]


def kpath(
    k_start: tuple[float, float, float],
    k_end: tuple[float, float, float],
    n: int,
) -> list[tuple[float, float, float]]:
    """``n`` uniformly spaced reduced k-vectors from start to end (incl.)."""
    if n < 2:
        raise ValueError("a path needs at least two points")
    a = np.asarray(k_start, float)
    b = np.asarray(k_end, float)
    return [tuple(a + (b - a) * t) for t in np.linspace(0.0, 1.0, n)]


def band_structure(
    mesh,
    scf_result,
    kpoints: list[tuple[float, float, float]],
    nbands: int = 8,
    spin: int = 0,
) -> np.ndarray:
    """Eigenvalues (len(kpoints), nbands) at frozen SCF potential.

    Each k-point is six degree-18 ChFES passes from a random start.
    ``spin`` selects the effective-potential channel for spin-polarized
    ground states (ignored distinction for spin-restricted ones).
    """
    v_eff = scf_result.v_tot + scf_result.v_xc_spin[:, spin]
    bands = np.empty((len(kpoints), nbands), dtype=float)
    for ik, kfrac in enumerate(kpoints):
        op = KSOperator(mesh, kfrac=kfrac)
        op.set_potential(v_eff)
        evals, _, _ = chfes_step(
            op, None, None, None, b=op.spectral_upper_bound(), degree=18,
            passes=6, block_size=64, nstates=nbands, seed=101 + ik,
        )
        bands[ik] = np.real(evals[:nbands])
    return bands
