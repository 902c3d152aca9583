"""Chebyshev-filtered subspace iteration (the paper's CF step, Algorithm 1).

``chebyshev_filter`` applies the scaled-and-shifted Chebyshev polynomial
``T_m`` to a block of wavefunctions so that the occupied ("wanted") part of
the spectrum, mapped to (-inf, -1), is amplified relative to the unwanted
part mapped into [-1, 1].  The filter is applied to *column blocks* of size
``B_f`` — the knob whose arithmetic-intensity effect the paper studies in
Fig. 4 — and each recurrence term of a block is one ``op.apply`` call: in
process the Kronecker-sum axis kernel :class:`repro.fem.fdm.AxisKinetic`
(three accumulating axis GEMMs, the potential folded into the last), and
the cell-level batched GEMMs of :mod:`repro.fem.assembly` only on the rank
backends.

The window — an upper bound ``b`` and the previous Ritz values (cut ``a``,
scaling point ``a0``), as in Zhou et al. [44] — and :func:`capped_degree`,
which keeps a tight window from over-amplifying, are applied in one place,
:func:`repro.core.scf.chfes_step`, for the SCF, the band structure and
inverse DFT alike.  The first two pass ``b`` from the operator's closed form
(``KSOperator.spectral_upper_bound``); inverse DFT passes a Lanczos ``b``.
"""

from __future__ import annotations

import numpy as np

from repro.fem.workspace import UNPOOLED
from repro.obs import kernel_region
from repro.resilience import faults as _faults
from repro.tools import sanitize as _sanitize

__all__ = ["lanczos_upper_bound", "capped_degree", "chebyshev_filter", "filter_block"]


def lanczos_upper_bound(op, k: int = 12, seed: int = 7) -> float:
    """Estimated upper bound of the spectrum of the Hermitian operator ``op``.

    Runs ``k`` Lanczos steps from a random vector and returns the largest
    Ritz value plus the last residual norm and ``1e-8`` — an estimate, not a
    proof, that overshoots by 14–24 % on the benchmark ledger's meshes and
    2–8× on a 27-DoF one (3.26 against a dense top eigenvalue of 0.52).
    """
    n = op.n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n).astype(np.float64)
    if np.issubdtype(op.dtype, np.complexfloating):
        v = v + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    alphas, betas = [], []
    v_prev = np.zeros_like(v)
    beta = 0.0
    for _ in range(k):
        w = op.apply(v)
        alpha = float(np.real(np.vdot(v, w)))
        w = w - alpha * v - beta * v_prev
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        if beta < 1e-12:
            break
        v_prev = v
        v = w / beta
    T = np.diag(alphas)
    off = betas[: len(alphas) - 1]
    T += np.diag(off, 1) + np.diag(off, -1)
    ritz = np.linalg.eigvalsh(T)
    return float(ritz[-1] + betas[len(alphas) - 1] + 1e-8)


def capped_degree(m: int, a: float, b: float, a0: float, dtype) -> int:
    """``min(m, floor(acosh(eps^-1/2) / acosh|x0|))``, at least 1: the degree
    at which the lowest state, ``x0 = (a0 - c)/e`` in the filter's map, gains
    ``T_k(|x0|) <= eps^-1/2`` over the cut, so the filtered block's Gram
    matrix stays Cholesky-factorizable in ``dtype``.  ``a0`` is a Ritz value.
    """
    e = (b - a) / 2.0
    x0 = abs((a0 - (b + a) / 2.0) / e)
    if x0 <= 1.0:
        return m
    limit = np.arccosh(np.finfo(dtype).eps ** -0.5) / np.arccosh(x0)
    return max(1, min(m, int(limit)))


def filter_block(
    op, X: np.ndarray, m: int, a: float, b: float, a0: float, workspace=None,
    hx0: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled Chebyshev filter of degree ``m`` on one wavefunction block.

    Maps [a, b] (unwanted spectrum) to [-1, 1]; eigencomponents below ``a``
    are amplified by T_m of their mapped (< -1) coordinate.  ``a0`` (an
    estimate of the lowest eigenvalue) sets the scaling that prevents
    overflow for large ``m``.

    ``hx0``, when given, is a precomputed ``H X`` substituted for the first
    operator application of the recurrence (the HX carried out of the fused
    CholGS→RR stage, adjusted for the potential update); it is read, never
    written.  This is the elision that makes the subspace engine one
    ``op.apply`` per ChFES iteration cheaper.

    Every term is one operator call, ``op.apply(Y, out=, scale=, shift=,
    minus=)`` — ``scale * (H - shift) Y - beta * X_prev`` — into one of
    three rotating pooled blocks (from ``workspace``, defaulting to
    ``op.workspace``; an operator without one gets fresh blocks); the
    recurrence makes no pass over a block of its own.  Only a carried
    ``hx0`` is arithmetic here, in the operand order of ``tests/reference``'s
    allocating recurrence, which the rank engines reproduce bit for bit and
    the in-process kernel to rounding.  The returned array is
    workspace-owned — valid until the next ``filter_block`` on the same
    thread.
    """
    if m < 1:
        raise ValueError("filter degree must be >= 1")
    e = (b - a) / 2.0
    c = (b + a) / 2.0
    sigma = e / (a0 - c)
    sigma1 = sigma
    ws = workspace if workspace is not None else getattr(op, "workspace", UNPOOLED)
    dt = np.result_type(op.dtype, X.dtype)
    # three rotating term blocks: X_k, Y_k and the Y_{k+1} being written
    bufs = [ws.get(f"cf_{i}", X.shape, dt) for i in range(3)]
    # Y = (H X - c X) * (sigma1 / e); a carried H X skips the first apply
    if hx0 is None:
        Y = op.apply(X, out=bufs[0], scale=sigma1 / e, shift=c)
    else:
        Y = bufs[0]
        np.multiply(c, X, out=Y)
        np.subtract(hx0, Y, out=Y)
        Y *= sigma1 / e
    # cyclic rotation: after i steps X = bufs[(i-2) % 3], Y = bufs[(i-1) % 3],
    # so bufs[i % 3] is always the free block (the input X never joins)
    for i in range(1, m):
        sigma2 = 1.0 / (2.0 / sigma1 - sigma)
        # Ynew = (H Y - c Y) * (2 sigma2 / e) - (sigma sigma2) * X
        Ynew = op.apply(
            Y, out=bufs[i % 3], scale=2.0 * sigma2 / e, shift=c,
            minus=(sigma * sigma2, X),
        )
        X, Y = Y, Ynew
        sigma = sigma2
    if _faults._PLAN is not None:  # reprochaos site (no-op unarmed)
        _faults.fault_point("filter_block", Y)
    return Y


def chebyshev_filter(
    op,
    X: np.ndarray,
    m: int,
    a: float,
    b: float,
    a0: float,
    block_size: int | None = None,
    ledger=None,
    workspace=None,
    hx0: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the Chebyshev filter in column blocks of size ``block_size``.

    This mirrors the paper's blocked CF kernel: each block is filtered
    independently (allowing compute/communication overlap on the real
    machine); numerically the result is identical to filtering all columns
    at once.  ``workspace`` is forwarded to :func:`filter_block` (which
    falls back to ``op.workspace`` when available).  ``hx0``, when given,
    is the precomputed ``H X`` for the *whole* block ``X``; each column
    block reads its slice in place of the recurrence's first apply.
    """
    n, nvec = X.shape
    bs = nvec if block_size is None else max(1, int(block_size))
    out = np.empty_like(X)
    with kernel_region("CF", ledger, degree=m, block_size=bs, nvec=nvec):
        for start in range(0, nvec, bs):
            sl = slice(start, min(start + bs, nvec))
            blk_hx0 = None if hx0 is None else hx0[:, sl]
            blk = filter_block(
                op, X[:, sl], m, a, b, a0, workspace=workspace, hx0=blk_hx0
            )
            san = _sanitize._STATE
            if san is not None:
                # workspace pools are thread-local; a block owned by another
                # thread means a pool leaked across the channel workers
                san.assert_owned(blk, context="chebyshev_filter block result")
            out[:, sl] = blk
    return out
