"""Preconditioned block MINRES for the invDFT adjoint solves (Sec 5.3.1).

Solves ``(H - eps_j I) x_j = b_j`` for a *block* of right-hand sides with
per-column spectral shifts, sharing the operator application across columns —
the paper's key trick for exploiting the high-arithmetic-intensity FE cell
level linear algebra in the adjoint solve.  The per-column Lanczos/Givens
scalars of the standard MINRES recurrence simply become length-B vectors.

Each shifted system is singular (eps_j is an eigenvalue of H); the solve is
restricted to the orthogonal complement of the corresponding eigenvector by
a per-column projection applied to every operator output.

The columns of one adjoint block are *summed* into the potential update, so
their absolute errors add: a column is converged once its residual estimate
is below ``tol`` times the block's **largest** right-hand-side norm.  The
block only ever carries the columns still above that line — a column below
it at the start is never iterated (``x = 0``), one that crosses it is frozen
and leaves — so the operator, the projection and the preconditioner see
exactly the columns whose answer the caller still needs, and no finished
column's recurrence is driven on into underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import add_counter, trace_region
from repro.resilience import faults as _faults

__all__ = ["BlockMinresResult", "block_minres"]


@dataclass
class BlockMinresResult:
    x: np.ndarray  #: (n, B) solutions
    iterations: int  #: block iterations (the longest column's count)
    #: (B,) final residual estimates relative to the block's largest RHS
    #: norm, in the norm of the recurrence (the preconditioner's)
    residuals: np.ndarray
    converged: bool
    column_iterations: np.ndarray  #: (B,) iterations each column was carried


def block_minres(
    apply_A,
    B: np.ndarray,
    shifts: np.ndarray,
    precondition=None,
    project=None,
    tol: float = 1e-8,
    maxiter: int = 500,
) -> BlockMinresResult:
    """Run block MINRES on ``(A - shifts_j) x_j = B[:, j]``.

    Parameters
    ----------
    apply_A:
        Callable applying the (Hermitian) operator to an (n, k) block.
    shifts:
        (B,) per-column shifts.
    precondition:
        Optional callable ``(R, cols) -> M^{-1} R`` applying a symmetric
        positive definite preconditioner to the (n, k) block holding the
        columns ``cols`` (indices into ``B``) still being solved.
    project:
        Optional callable ``(Y, cols) -> Y`` enforcing per-column
        orthogonality constraints, applied to the RHS and to every new
        Krylov vector.
    tol:
        A column stops when its residual estimate is at most ``tol`` times
        the largest right-hand-side norm of the block.
    """
    Bmat = np.atleast_2d(B)
    n, m = Bmat.shape
    with trace_region("MINRES", nrhs=m, ndof=n):
        result = _block_minres(
            apply_A, Bmat, shifts, precondition, project, tol, maxiter
        )
        skipped = int(np.count_nonzero(result.column_iterations == 0))
        add_counter("iterations", result.iterations)
        add_counter("columns", m - skipped)
        add_counter("columns_skipped", skipped)
    return result


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ij,ij->j", np.conj(u), v))


def _norms(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-column ``sqrt(<r, M^{-1} r>)`` with ``y = M^{-1} r``."""
    b2 = _dots(r, y)
    if np.any(b2 < 0):
        raise ValueError("preconditioner is not positive definite")
    return np.sqrt(b2)


def _block_minres(
    apply_A, Bmat, shifts, precondition, project, tol, maxiter
) -> BlockMinresResult:
    m = Bmat.shape[1]
    cols = every = np.arange(m)
    shifts = np.asarray(shifts, dtype=float).reshape(m)
    x = np.zeros_like(Bmat)
    col_its = np.zeros(m, dtype=int)

    r2 = Bmat if project is None else project(Bmat, cols)
    y = r2 if precondition is None else precondition(r2, cols)
    beta = _norms(r2, y)
    # the stopping line; never zero, so an all-zero block retires at once
    scale = float(beta.max(initial=np.finfo(float).tiny))
    resid = np.zeros(m)
    r1 = r2
    oldb = np.zeros(m)
    dbar = np.zeros(m)
    epsln = np.zeros(m)
    phibar = beta.copy()
    cs = -np.ones(m)
    sn = np.zeros(m)
    xa = np.zeros_like(r2)
    w = np.zeros_like(r2)
    w2 = np.zeros_like(r2)
    it = 0
    while True:
        done = phibar <= tol * scale  # a NaN estimate is not convergence
        exhausted = it == maxiter and not done.all()
        if exhausted:
            done[:] = True
        if done.any():
            # freeze what is finished; the block shrinks to the live columns
            x[:, cols[done]] = xa[:, done]
            col_its[cols[done]] = it
            resid[cols[done]] = phibar[done] / scale
            keep = ~done
            cols, shifts = cols[keep], shifts[keep]
            beta, oldb, dbar, epsln = beta[keep], oldb[keep], dbar[keep], epsln[keep]
            phibar, cs, sn = phibar[keep], cs[keep], sn[keep]
            r1, r2, y = r1[:, keep], r2[:, keep], y[:, keep]
            xa, w, w2 = xa[:, keep], w[:, keep], w2[:, keep]
        if not cols.size:
            break
        it += 1
        v = y / beta
        y = apply_A(v)
        if _faults._PLAN is not None:  # reprochaos site (no-op unarmed)
            _faults.fault_point("minres", y)
            if not np.all(np.isfinite(y)):
                # retryable (the caller's RetryPolicy restarts the solve);
                # NOT a ResilienceError, which would mean recovery exhausted
                raise RuntimeError(
                    f"non-finite Krylov vector at MINRES iteration {it}"
                )
        y = y - shifts * v
        if project is not None:
            y = project(y, cols)
        if it >= 2:
            y -= (beta / oldb) * r1
        alfa = _dots(v, y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = r2 if precondition is None else precondition(r2, cols)
        oldb = beta
        beta = _norms(r2, y)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.sqrt(gbar**2 + beta**2)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        xa += phi * w
    if project is not None:
        x = project(x, every)
    return BlockMinresResult(
        x=x, iterations=it, residuals=resid, converged=not exhausted,
        column_iterations=col_its,
    )
