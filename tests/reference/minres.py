"""Fixed-block, unpreconditioned block MINRES: the adjoint-solve oracle.

Until the active-set, FDM-preconditioned solver replaced it, this *was*
:func:`repro.invdft.minres.block_minres`: every column of the block is
carried through every iteration, each column's residual estimate is measured
against *its own* right-hand side, and the loop stops when all columns that
were non-zero at the start are below ``tol``.  Its arithmetic is untouched
(operation order included), so a column's answer at a tight tolerance is an
independent check on the production solver's: no preconditioner, no
deflation, no block-relative stopping line.

* :func:`reference_block_minres` — the recurrence;
* :func:`reference_solve_adjoint` — ``(H - eps_i) p_i = g_i`` with the
  per-column projection, as ``solve_adjoint`` called it.
"""

from __future__ import annotations

import numpy as np

from repro.invdft.minres import BlockMinresResult

__all__ = ["reference_block_minres", "reference_solve_adjoint"]


def reference_block_minres(
    apply_A, B, shifts, project=None, tol: float = 1e-8, maxiter: int = 500
) -> BlockMinresResult:
    """``(A - shifts_j) x_j = B[:, j]``; ``project(Y)`` sees the full block.

    ``residuals`` are relative to each column's own right-hand side (zero
    for a column that was zero), ``column_iterations`` the shared count.
    """
    Bmat = np.atleast_2d(B)
    n, m = Bmat.shape
    shifts = np.asarray(shifts, dtype=float).reshape(m)

    def dots(u, v):
        return np.real(np.einsum("ij,ij->j", np.conj(u), v))

    x = np.zeros_like(Bmat)
    r1 = Bmat if project is None else project(Bmat)
    r2 = y = r1
    beta1 = dots(r1, y)
    live = beta1 > 1e-300
    beta1 = np.sqrt(np.where(live, beta1, 1.0))

    oldb = np.zeros(m)
    beta = beta1
    dbar = np.zeros(m)
    epsln = np.zeros(m)
    phibar = beta1
    cs = -np.ones(m)
    sn = np.zeros(m)
    w = np.zeros_like(Bmat)
    w2 = np.zeros_like(Bmat)
    it = 0
    for it in range(1, maxiter + 1):
        v = y * (1.0 / beta)[None, :]
        y = apply_A(v)
        y -= shifts[None, :] * v
        if project is not None:
            y = project(y)
        if it >= 2:
            y -= (beta / oldb)[None, :] * r1
        alfa = dots(v, y)
        y -= (alfa / beta)[None, :] * r2
        r1 = r2
        r2 = y
        oldb = beta
        beta2 = dots(r2, y)
        # the guards a dead column hides behind while the block waits for
        # its slowest member
        beta2 = np.where(beta2 > 0, beta2, 1e-300)
        beta = np.sqrt(beta2)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.sqrt(gbar**2 + beta**2)
        gamma = np.maximum(gamma, 1e-300)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = v - oldeps[None, :] * w1
        w -= delta[None, :] * w2
        w /= gamma[None, :]
        x += phi[None, :] * w
        rel = phibar / beta1
        if np.all(rel[live] <= tol):
            break
    if project is not None:
        x = project(x)
    rel = phibar / beta1
    return BlockMinresResult(
        x=x, iterations=it, residuals=np.where(live, rel, 0.0),
        converged=bool(np.all(rel[live] <= tol)),
        column_iterations=np.full(m, it),
    )


def reference_solve_adjoint(
    op, psi, eigenvalues, G, tol: float = 1e-7, maxiter: int = 400
) -> BlockMinresResult:
    """Oracle for :func:`repro.invdft.adjoint.solve_adjoint`."""

    def project(Y):
        coefs = np.einsum("ij,ij->j", np.conj(psi), Y)
        return Y - psi * coefs[None, :]

    return reference_block_minres(
        op.apply, G, np.asarray(eigenvalues, dtype=float),
        project=project, tol=tol, maxiter=maxiter,
    )
