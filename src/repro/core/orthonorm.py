"""Cholesky Gram-Schmidt orthonormalization (CholGS, Algorithm 1 step 2).

Implements the three substeps of the paper with their mixed-precision block
structure:

* **CholGS-S** — overlap ``S = X^H X``, computed in column blocks; with
  mixed precision enabled, diagonal blocks are accumulated in FP64 while
  off-diagonal blocks (which decay to zero as the filtered subspace
  converges) use FP32 — the paper's key trick for cutting the O(M N^2) cost.
* **CholGS-CI** — Cholesky factorization ``S = L L^H`` and explicit
  triangular inverse (FLOPs uncounted, wall time charged, as in Table 3).
* **CholGS-O** — subspace rotation ``X <- X L^{-H}`` by blocked GEMMs.

``blocked_gram``/``blocked_rotate`` are the contract-checked entry points
of the batched engine in :mod:`.subspace` (single-cast FP32 mirrors,
offset-batched ``np.matmul``, no zeroed temporaries), which is bitwise
identical to the per-block reference loops kept as test oracles in
``tests/reference``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro.obs import kernel_region
from repro.tools.contracts import dtype_contract, shape_contract

from .subspace import batched_gram, batched_rotate

__all__ = ["blocked_gram", "cholesky_orthonormalize", "blocked_rotate"]


@shape_contract(X=("n", "nvec"), returns=("nvec", "nvec"))
@dtype_contract(X="inexact", preserves="X")
def blocked_gram(
    X: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
    kernel: str = "CholGS-S",
) -> np.ndarray:
    """Hermitian ``S = X^H X`` by column blocks, exploiting symmetry.

    Only blocks with ``j >= i`` are computed (the paper's alpha=1 Hermitian
    exploitation); with ``mixed_precision`` the strictly off-diagonal blocks
    are computed in FP32.
    """
    return batched_gram(
        X,
        block_size=block_size,
        mixed_precision=mixed_precision,
        ledger=ledger,
        kernel=kernel,
    )


@shape_contract(X=("n", "nvec"), Q=("nvec", "k"), returns=("n", "k"))
@dtype_contract(X="inexact", preserves="X")
def blocked_rotate(
    X: np.ndarray,
    Q: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
    kernel: str = "RR-SR",
) -> np.ndarray:
    """Blocked subspace rotation ``Y = X Q``.

    With mixed precision, the contribution of off-diagonal blocks of ``Q``
    (rotations mixing well-separated subspace directions, which shrink as
    the SCF converges) is accumulated in FP32; diagonal blocks stay FP64.
    """
    return batched_rotate(
        X,
        Q,
        block_size=block_size,
        mixed_precision=mixed_precision,
        ledger=ledger,
        kernel=kernel,
    )


@shape_contract(X=("n", "nvec"), returns=("n", "nvec"))
@dtype_contract(X="inexact", preserves="X")
def cholesky_orthonormalize(
    X: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> np.ndarray:
    """Full CholGS: overlap, Cholesky inverse, rotation.  Returns X L^{-H}.

    Falls back to a QR factorization if the overlap is numerically
    indefinite (severe filter ill-conditioning), which cannot happen once
    the SCF is under way but protects cold starts.  The fallback is metered
    under its own ``CholGS-QR`` kernel label (wall time charged, FLOPs
    uncounted like CholGS-CI), so an ill-conditioned cold start no longer
    skews ``scf --profile`` breakdowns silently.
    """
    S = blocked_gram(
        X, block_size=block_size, mixed_precision=mixed_precision, ledger=ledger
    )
    fallback = False
    with kernel_region("CholGS-CI", ledger):
        try:
            L = np.linalg.cholesky(S)
            Linv = solve_triangular(L, np.eye(L.shape[0], dtype=L.dtype), lower=True)
        except np.linalg.LinAlgError:
            fallback = True
    if fallback:
        with kernel_region("CholGS-QR", ledger):
            Q, _ = np.linalg.qr(X)
            return np.ascontiguousarray(Q)
    return blocked_rotate(
        X,
        Linv.conj().T,
        block_size=block_size,
        mixed_precision=mixed_precision,
        ledger=ledger,
        kernel="CholGS-O",
    )
