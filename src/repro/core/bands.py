"""Post-SCF band structure along a k-path (non-self-consistent).

Given a converged ground state, the effective potential is frozen and the
Bloch eigenproblem is re-solved (multi-pass ChFES) at arbitrary reduced
k-vectors — the standard non-self-consistent band-structure workflow, built
from the same blocked eigensolver kernels as the SCF.
"""

from __future__ import annotations

import numpy as np

from repro.fem.assembly import KSOperator

from .chebyshev import capped_degree, chebyshev_filter
from .orthonorm import cholesky_orthonormalize
from .subspace import fused_cholgs_rr

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
    cheb_degree: int = 18,
    passes: int = 6,
    block_size: int = 64,
    spin: int = 0,
) -> np.ndarray:
    """Eigenvalues (len(kpoints), nbands) at frozen SCF potential.

    ``spin`` selects the effective-potential channel for spin-polarized
    ground states (ignored distinction for spin-restricted ones).
    """
    v_eff = scf_result.v_tot + scf_result.v_xc_spin[:, spin]
    bands = np.empty((len(kpoints), nbands), dtype=float)
    for ik, kfrac in enumerate(kpoints):
        op = KSOperator(mesh, kfrac=kfrac)
        op.set_potential(v_eff)
        b = op.spectral_upper_bound()
        rng = np.random.default_rng(101 + ik)
        X = rng.standard_normal((op.n, nbands))
        if np.issubdtype(op.dtype, np.complexfloating):
            X = X + 1j * rng.standard_normal((op.n, nbands))
        X = np.asarray(X, dtype=op.dtype)
        X = cholesky_orthonormalize(X, block_size=block_size)
        d = op.diagonal()
        a0 = float(np.min(d)) - 1.0
        a = a0 + 0.35 * (b - a0)
        evals = None
        # the potential is frozen along the whole multi-pass solve, so the
        # HX rotated out of each fused stage seeds the next pass's filter
        # unadjusted (one fewer op.apply per pass after the first)
        hx0 = None
        for p in range(passes):
            # only a window around Ritz values is capped, not the random start's
            m = cheb_degree if p == 0 else capped_degree(cheb_degree, a, b, a0, X.dtype)
            X = chebyshev_filter(op, X, m, a, b, a0, block_size=block_size, hx0=hx0)
            HW = op.apply(X)
            evals, X, hx0 = fused_cholgs_rr(X, HW, op=op, block_size=block_size)
            a0 = float(evals[0])
            a = float(evals[-1]) + 0.01 * (b - float(evals[-1]))
        bands[ik] = np.real(evals[:nbands])
    return bands
