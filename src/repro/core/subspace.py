"""The ChFES subspace stage: CholGS and Rayleigh-Ritz (Algorithm 1 steps 2-3).

The non-filter time of a ChFES cycle is spent in dense subspace kernels,
labelled as in the paper's Table 3:

* **CholGS-S** — overlap ``S = X^H X``; with mixed precision the diagonal
  blocks stay FP64 and the off-diagonal blocks (which decay to zero as the
  filtered subspace converges) are FP32 — the paper's trick for cutting the
  O(M N^2) cost.
* **CholGS-CI** — Cholesky ``S = L L^H`` and the explicit triangular inverse
  (FLOPs uncounted, wall time charged); an indefinite overlap falls back to
  a QR factorization metered as **CholGS-QR**.
* **CholGS-O** — rotation ``X <- X L^{-H}``.
* **RR-P / RR-D / RR-SR** — projected Hamiltonian ``X^H (H X)`` with the same
  precision layout, its dense diagonalization, the Ritz rotation.

The textbook per-block loops are test oracles in ``tests/reference``; the
engine here is bitwise identical to them:

* **single-cast mirrors** — with mixed precision, ``X``/``HX`` are downcast
  to an FP32 mirror once per call (:func:`repro.precision.fp32_mirror`,
  into pooled buffers); every off-diagonal block then *slices* the mirror,
  which is bitwise identical to the reference per-block ``.astype``.
* **offset-batched GEMMs** — the same-shape off-diagonal blocks of the
  Hermitian overlap/projection lie on diagonals of the block grid; for each
  offset ``d`` the blocks ``(i, i+d)`` are exposed as one strided
  ``(count, n, bs)`` stack (``as_strided``, zero copies) and contracted by
  a single ``np.matmul`` batch.  Batched products are bitwise identical to
  the per-block 2-D GEMMs (same BLAS kernel per slice), so the engine gram
  equals the reference gram bit for bit.
* **no zero-temporaries** — rotations write block products straight into
  the output columns (first term) and accumulate via a pooled product
  buffer (later terms); the reference's ``acc``/``Y`` zeroed temporaries
  are gone.  Results are freshly owned arrays: ``psi``/``hpsi`` persist
  across SCF iterations and the resilience layer rewinds by reference, so
  pooled *outputs* would alias.
* **fused CholGS→RR with HX reuse** — :func:`fused_cholgs_rr`, the stage
  every SCF, band and invDFT step runs, consumes a filtered block ``W`` and
  its precomputed product ``HW = H W`` and derives orthonormalization *and*
  Ritz rotation without a single operator application: the projected
  Hamiltonian is the congruence ``L^{-1} (W^H HW) L^{-H}`` and the combined
  rotation ``R = L^{-H} Q`` is applied to both ``W`` and ``HW``, so the
  rotated ``H X`` leaves the stage for free and seeds the next Chebyshev
  filter's first term (one fewer ``op.apply`` per ChFES iteration; see
  :func:`adjust_carried_hx` for the cross-SCF-step potential update).

:func:`cholesky_orthonormalize` (cold starts) and :func:`rayleigh_ritz`
(which issues its own ``op.apply``) are the unfused steps.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import solve_triangular

from repro.fem.workspace import Workspace
from repro.hpc.flops import gemm_flops
from repro.obs import kernel_region
from repro.precision import f32_dtype, fp32_mirror
from repro.tools.contracts import dtype_contract, shape_contract

__all__ = [
    "ENGINE_WORKSPACE",
    "adjust_carried_hx",
    "batched_gram",
    "batched_rotate",
    "cholesky_orthonormalize",
    "fused_cholgs_rr",
    "rayleigh_ritz",
]

#: pooled intermediates of the engine (FP32 mirrors, batched product
#: stacks, per-block accumulator products); thread-local, so serve's
#: concurrent slice workers each get their own buffers
ENGINE_WORKSPACE = Workspace()


def _block_stack(A: np.ndarray, bs: int, first: int, count: int) -> np.ndarray:
    """Read-only ``(count, n, bs)`` view of consecutive width-``bs`` column
    blocks of ``A``, starting at block index ``first`` — no copies."""
    s0, s1 = A.strides
    return as_strided(
        A[:, first * bs :],
        shape=(count, A.shape[0], bs),
        strides=(bs * s1, s0, s1),
        writeable=False,
    )


def _band_view(S: np.ndarray, bs: int, d: int, count: int, upper: bool) -> np.ndarray:
    """Writable ``(count, bs, bs)`` view of the blocks on diagonal offset
    ``d`` of the block grid of ``S`` (upper: ``S[i, i+d]``, else the
    mirrored ``S[i+d, i]``).  Blocks are disjoint for ``d >= 1``."""
    s0, s1 = S.strides
    base = S[:, d * bs :] if upper else S[d * bs :, :]
    return as_strided(base, shape=(count, bs, bs), strides=(bs * (s0 + s1), s0, s1))


@shape_contract(X=("n", "nvec"), Y=("n", "nvec"), returns=("nvec", "nvec"))
@dtype_contract(X="inexact", preserves="X")
def batched_gram(
    X: np.ndarray,
    Y: np.ndarray | None = None,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
    kernel: str = "CholGS-S",
) -> np.ndarray:
    """Hermitian ``S = X^H Y`` (``Y = X`` for the overlap) by batched blocks.

    Computes only blocks with ``j >= i`` and mirrors the strict upper
    triangle (the paper's alpha=1 Hermitian exploitation).  Off-diagonal
    full-size blocks are contracted as one ``np.matmul`` batch per diagonal
    offset; diagonal and ragged-tail blocks follow the reference per-block
    path.  With ``mixed_precision`` the off-diagonal blocks read single-cast
    FP32 mirrors of ``X``/``Y`` — bitwise identical to the reference
    per-block downcasts.  For ``Y != X`` (RR-P) the result is Hermitian only
    up to round-off, exactly as the reference; callers hermitize.
    """
    n, nvec = X.shape
    if Y is None:
        Y = X
    same = Y is X
    is_complex = np.issubdtype(X.dtype, np.complexfloating)
    bs = int(block_size)
    ws = ENGINE_WORKSPACE
    S = np.empty((nvec, nvec), dtype=X.dtype)
    starts = list(range(0, nvec, bs))
    nb_full = nvec // bs
    X32 = Y32 = None
    if mixed_precision:
        f32 = f32_dtype(X.dtype)
        X32 = fp32_mirror(X, out=ws.get("gram_x32", X.shape, f32))  # reprolint: disable=R001
        Y32 = X32 if same else fp32_mirror(Y, out=ws.get("gram_y32", Y.shape, f32))  # reprolint: disable=R001
    with kernel_region(kernel, ledger, block_size=bs, nvec=nvec):
        # diagonal blocks and every pair touching the ragged tail follow the
        # reference per-block path (and order); FP32 comes from mirror slices
        for bi, i in enumerate(starts):
            si = slice(i, min(i + bs, nvec))
            for j in starts[bi:]:
                sj = slice(j, min(j + bs, nvec))
                offdiag = j > i
                full = (si.stop - si.start == bs) and (sj.stop - sj.start == bs)
                if offdiag and full and bs > 1:
                    continue  # covered by the batched sweep below
                if mixed_precision and offdiag:
                    # repack the mirror slices contiguously: the reference's
                    # per-block astype produced contiguous operands, and BLAS
                    # picks a different (bitwise-different) path for strided
                    # matrix-vector shapes on the ragged tail
                    blk = (
                        np.ascontiguousarray(X32[:, si]).conj().T
                        @ np.ascontiguousarray(Y32[:, sj])
                    )
                    prec = "fp32"
                else:
                    blk = X[:, si].conj().T @ Y[:, sj]
                    prec = "fp64"
                S[si, sj] = blk  # FP32 products upcast on assignment
                if offdiag:
                    S[sj, si] = blk.conj().T
                if ledger is not None:
                    ledger.add(
                        kernel,
                        gemm_flops(si.stop - si.start, sj.stop - sj.start, n, is_complex),
                        precision=prec,
                    )
        # bs == 1 degenerates the batch to stacked inner products, for which
        # BLAS takes a bitwise-different path than the reference's 2-D GEMMs
        if nb_full >= 2 and bs > 1:
            left = X32 if mixed_precision else X
            right = Y32 if mixed_precision else Y
            if is_complex:
                # conjugate the left operand once per call (the per-block
                # reference conjugates the same columns once per pair)
                cbuf = ws.get(
                    "gram_conj", left.shape, left.dtype
                )
                np.conjugate(left, out=cbuf)
                left = cbuf
            pdt = f32_dtype(X.dtype) if mixed_precision else X.dtype
            pbuf = ws.get("gram_prod", (nb_full - 1, bs, bs), pdt)
            prec = "fp32" if mixed_precision else "fp64"
            for d in range(1, nb_full):
                cnt = nb_full - d
                L = _block_stack(left, bs, 0, cnt)
                R = _block_stack(right, bs, d, cnt)
                prod = np.matmul(L.transpose(0, 2, 1), R, out=pbuf[:cnt])
                _band_view(S, bs, d, cnt, upper=True)[...] = prod
                herm = prod.transpose(0, 2, 1)
                if is_complex:
                    herm = np.conjugate(herm)
                _band_view(S, bs, d, cnt, upper=False)[...] = herm
                if ledger is not None:
                    ledger.add(
                        kernel,
                        cnt * gemm_flops(bs, bs, n, is_complex),
                        precision=prec,
                    )
    return S


@shape_contract(X=("n", "nvec"), Q=("nvec", "k"), returns=("n", "k"))
@dtype_contract(X="inexact", preserves="X")
def batched_rotate(
    X: np.ndarray,
    Q: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
    kernel: str = "RR-SR",
) -> np.ndarray:
    """Blocked rotation ``Y = X Q`` without zeroed temporaries.

    The first row-block product of each output column block is written
    straight into a fresh output; later blocks accumulate through a pooled
    product buffer.  The summation order — and with ``mixed_precision`` the
    FP32 off-diagonal block products, read from single-cast mirrors —
    matches the per-block oracle ``tests/reference.reference_rotate``
    exactly (the only divergence is the sign of exact-zero entries, which
    the oracle obtains as ``0.0 + (-0.0)``).
    """
    n, nvec = X.shape
    k = Q.shape[1]
    is_complex = np.issubdtype(X.dtype, np.complexfloating)
    bs = int(block_size)
    ws = ENGINE_WORKSPACE
    out = np.empty((n, k), dtype=X.dtype)
    X32 = Q32 = None
    if mixed_precision:
        f32 = f32_dtype(X.dtype)
        X32 = fp32_mirror(X, out=ws.get("rot_x32", X.shape, f32))  # reprolint: disable=R001
        Q32 = fp32_mirror(Q, out=ws.get("rot_q32", Q.shape, f32))  # reprolint: disable=R001
    starts = list(range(0, nvec, bs))
    with kernel_region(kernel, ledger, block_size=bs, nvec=nvec):
        for j in range(0, k, bs):
            sj = slice(j, min(j + bs, k))
            w = sj.stop - sj.start
            oj = out[:, sj]
            first = True
            for i in starts:
                si = slice(i, min(i + bs, nvec))
                if mixed_precision and i != j:
                    # contiguous repack of the mirror slices (see batched_gram:
                    # BLAS is layout-sensitive at the bit level for the ragged
                    # matrix-vector shapes; the reference operands, produced by
                    # per-block astype, were contiguous)
                    prod32 = np.matmul(
                        np.ascontiguousarray(X32[:, si]),
                        np.ascontiguousarray(Q32[si, sj]),
                        out=ws.get("rot_prod32", (n, w), X32.dtype),
                    )
                    if first:
                        oj[...] = prod32  # upcast on assignment
                    else:
                        oj += prod32
                    prec = "fp32"
                else:
                    if first:
                        np.matmul(X[:, si], Q[si, sj], out=oj)
                    else:
                        prod = np.matmul(
                            X[:, si], Q[si, sj], out=ws.get("rot_prod", (n, w), X.dtype)
                        )
                        oj += prod
                    prec = "fp64"
                first = False
                if ledger is not None:
                    ledger.add(
                        kernel,
                        gemm_flops(n, w, si.stop - si.start, is_complex),
                        precision=prec,
                    )
    return out


def _cholgs_factor(
    W: np.ndarray, op, block_size: int, mixed_precision: bool, ledger
) -> np.ndarray | None:
    """CholGS-S and CholGS-CI: ``L^{-1}`` of the overlap ``W^H W = L L^H``,
    or None when the overlap is numerically indefinite.

    A distributed operator (one with a ``cluster``) sums the gram over ranks
    first: an allreduce that is an identity metering its wire bytes.
    """
    S = batched_gram(
        W, block_size=block_size, mixed_precision=mixed_precision, ledger=ledger
    )
    cluster = getattr(op, "cluster", None)
    if cluster is not None:
        S = cluster.allreduce(S)
    with kernel_region("CholGS-CI", ledger):
        try:
            L = np.linalg.cholesky(S)
            return solve_triangular(L, np.eye(L.shape[0], dtype=L.dtype), lower=True)
        except np.linalg.LinAlgError:
            return None


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
    uncounted like CholGS-CI).
    """
    Linv = _cholgs_factor(X, None, block_size, mixed_precision, ledger)
    if Linv is None:
        with kernel_region("CholGS-QR", ledger):
            return np.ascontiguousarray(np.linalg.qr(X)[0])
    return batched_rotate(
        X,
        Linv.conj().T,
        block_size=block_size,
        mixed_precision=mixed_precision,
        ledger=ledger,
        kernel="CholGS-O",
    )


def rayleigh_ritz(
    op,
    X: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray]:
    """RR-P, RR-D, RR-SR on an orthonormal ``X``, with its own ``op.apply``.
    Returns (eigenvalues, rotated X)."""
    kw = dict(block_size=block_size, mixed_precision=mixed_precision, ledger=ledger)
    Hp = batched_gram(X, op.apply(X), kernel="RR-P", **kw)
    Hp = 0.5 * (Hp + Hp.conj().T)
    with kernel_region("RR-D", ledger):
        evals, Q = np.linalg.eigh(Hp)
    return evals, batched_rotate(X, Q, kernel="RR-SR", **kw)


def fused_cholgs_rr(
    W: np.ndarray,
    HW: np.ndarray,
    *,
    op,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused CholGS → Rayleigh-Ritz on a filtered block, zero applies.

    Given ``W`` (Chebyshev filter output) and ``HW = H W`` (computed once,
    alongside the filter workload), performs

    1. ``S = W^H W``                      (CholGS-S)
    2. ``S = L L^H``, ``L^{-1}``          (CholGS-CI; QR rescue → CholGS-QR)
    3. ``Hp = W^H HW``                    (RR-P)
    4. ``Hhat = L^{-1} Hp L^{-H}``        (RR-P, congruence to the
       orthonormal basis — algebraically ``X^H H X`` for ``X = W L^{-H}``)
    5. ``Hhat = Q diag(e) Q^H``           (RR-D)
    6. ``R = L^{-H} Q``                   (CholGS-O, combined rotation)
    7. ``X = W R``                        (RR-SR)
    8. ``HX = HW R``                      (CholGS-O — the rotation CholGS-O
       would have applied to ``X`` lands on ``HW`` instead, at the same
       tall-GEMM cost, and hands ``H X`` to the next filter for free)

    Returns ``(evals, X, HX)``.  When the overlap is numerically indefinite
    (severe cold-start ill-conditioning) a QR factorization rescues the
    basis, metered under its own ``CholGS-QR`` label, and ``HW`` is
    refreshed by ``op.apply``.
    """
    nvec = W.shape[1]
    is_complex = np.issubdtype(W.dtype, np.complexfloating)
    kw = dict(block_size=block_size, mixed_precision=mixed_precision, ledger=ledger)
    Linv = _cholgs_factor(W, op, block_size, mixed_precision, ledger)
    if Linv is None:
        # ill-conditioned cold start: rescue the basis by QR, metered under
        # its own kernel label (FLOPs uncounted, like CholGS-CI)
        with kernel_region("CholGS-QR", ledger):
            W = np.ascontiguousarray(np.linalg.qr(W)[0])
            HW = op.apply(W)
    Hp = batched_gram(W, HW, kernel="RR-P", **kw)
    cluster = getattr(op, "cluster", None)
    if cluster is not None:
        Hp = cluster.allreduce(Hp)
    Hp = 0.5 * (Hp + Hp.conj().T)
    if Linv is not None:
        with kernel_region("RR-P", ledger):
            Hhat = Linv @ Hp @ Linv.conj().T
            Hhat = 0.5 * (Hhat + Hhat.conj().T)
        if ledger is not None:
            ledger.add("RR-P", 2.0 * gemm_flops(nvec, nvec, nvec, is_complex))
    else:
        Hhat = Hp
    with kernel_region("RR-D", ledger):
        evals, Qe = np.linalg.eigh(Hhat)
    if Linv is not None:
        with kernel_region("CholGS-O", ledger):
            R = Linv.conj().T @ Qe
        if ledger is not None:
            ledger.add("CholGS-O", gemm_flops(nvec, nvec, nvec, is_complex))
    else:
        R = Qe
    X = batched_rotate(W, R, kernel="RR-SR", **kw)
    return evals, X, batched_rotate(HW, R, kernel="CholGS-O", **kw)


def adjust_carried_hx(
    hpsi: np.ndarray | None, psi: np.ndarray, dv: np.ndarray
) -> np.ndarray | None:
    """``H_new psi`` from the carried ``H_old psi`` under a potential update.

    The Löwdin-basis Hamiltonian is ``H = T + diag(v)`` (+ a *fixed*
    separable nonlocal term), so ``H_new - H_old = diag(v_new - v_old)``
    exactly and the carried product survives the SCF potential update as
    ``hpsi + dv ∘ psi`` — no operator application needed.  Returns ``hpsi``
    unchanged when ``dv`` is identically zero (repeated eigensolves at a
    fixed potential), ``None`` when there is nothing carried.
    """
    if hpsi is None:
        return None
    if not np.any(dv):
        return hpsi
    return hpsi + dv[:, None] * psi
