"""Rayleigh-Ritz projection (RR, Algorithm 1 step 3).

* **RR-P** — projected Hamiltonian ``Hhat = X^H (H X)`` via blocked GEMMs
  with the same FP64-diagonal / FP32-off-diagonal mixed-precision layout as
  CholGS-S (Hermiticity exploited, alpha=1).
* **RR-D** — dense diagonalization of ``Hhat`` (FLOPs uncounted).
* **RR-SR** — subspace rotation ``X <- X Q`` (alpha=2, mixed precision).

``projected_hamiltonian`` runs on the batched engine in :mod:`.subspace`
(the per-block reference loop is a test oracle in ``tests/reference``).
The SCF driver fuses this stage with CholGS via
:func:`repro.core.subspace.fused_cholgs_rr`, which reuses the operator
application issued for the Chebyshev filter; the standalone
:func:`rayleigh_ritz` entry point below keeps the self-contained
``op.apply`` for callers that arrive without ``HX``.
"""

from __future__ import annotations

import numpy as np

from repro.obs import kernel_region
from repro.tools.contracts import dtype_contract, shape_contract

from .orthonorm import blocked_rotate
from .subspace import batched_gram

__all__ = ["projected_hamiltonian", "rayleigh_ritz"]


@shape_contract(X=("n", "nvec"), HX=("n", "nvec"), returns=("nvec", "nvec"))
@dtype_contract(X="inexact", preserves="X")
def projected_hamiltonian(
    X: np.ndarray,
    HX: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> np.ndarray:
    """Hermitian projection ``Hhat = X^H HX`` by blocks (kernel RR-P)."""
    Hp = batched_gram(
        X,
        HX,
        block_size=block_size,
        mixed_precision=mixed_precision,
        ledger=ledger,
        kernel="RR-P",
    )
    # Hermitize the diagonal blocks (round-off) for a clean eigh input.
    return 0.5 * (Hp + Hp.conj().T)


def rayleigh_ritz(
    op,
    X: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Project, diagonalize, rotate.  Returns (eigenvalues, rotated X).

    ``X`` must be orthonormal on entry (CholGS output).  The application of
    ``H`` to the subspace is charged to the CF/cell-GEMM ledger by the
    operator itself.  This standalone entry point issues its own
    ``op.apply``; the SCF hot path instead uses
    :func:`repro.core.subspace.fused_cholgs_rr`, which rotates a
    precomputed ``H W`` and skips this application entirely.
    """
    HX = op.apply(X)
    Hp = projected_hamiltonian(
        X, HX, block_size=block_size, mixed_precision=mixed_precision, ledger=ledger
    )
    with kernel_region("RR-D", ledger):
        evals, Q = np.linalg.eigh(Hp)
    Xr = blocked_rotate(
        X,
        Q,
        block_size=block_size,
        mixed_precision=mixed_precision,
        ledger=ledger,
        kernel="RR-SR",
    )
    return evals, Xr
