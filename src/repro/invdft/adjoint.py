"""Adjoint equation of the PDE-constrained inverse DFT problem (Eq. 2).

For the objective ``L = int w (rho_KS - rho_t)^2`` the stationarity of the
Lagrangian gives, per occupied state i,

.. math::

    (H - \\epsilon_i) p_i = g_i,
    \\qquad g_i = -4 f_i\\, w\\, (\\rho_{KS} - \\rho_t)\\, \\psi_i,

restricted to the orthogonal complement of psi_i, and the potential update
direction is ``u(r) = sum_i p_i(r) psi_i(r)`` — the steepest-descent
direction of L with respect to the multiplicative potential.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Mesh3D
from repro.obs import kernel_region

from .minres import BlockMinresResult, block_minres

__all__ = ["adjoint_rhs", "solve_adjoint", "potential_gradient"]

#: floor of the preconditioner's shift ``sigma_i = max(-eps_i, SIGMA_FLOOR)``:
#: keeps ``K/2 + sigma M`` safely positive definite for states at or above
#: the vacuum level (scan in EXPERIMENTS.md, "Sec 5.3.1")
SIGMA_FLOOR = 0.1


def adjoint_rhs(
    mesh: Mesh3D,
    psi: np.ndarray,
    occupations: np.ndarray,
    drho_weighted_full: np.ndarray,
) -> np.ndarray:
    """Build the (projected) adjoint right-hand sides ``g_i`` in Löwdin coords.

    ``drho_weighted_full`` is ``w * (rho_KS - rho_t)`` on all nodes.  In the
    Löwdin (diagonal-mass) discretization a multiplicative field acts as a
    plain diagonal on the coefficients, so
    ``g_i = -4 f_i * diag(w drho) psi_i`` followed by projection.
    """
    dr_free = drho_weighted_full[mesh.free]
    G = -4.0 * occupations[None, :] * dr_free[:, None] * psi
    # project each column orthogonal to its own eigenvector
    coefs = np.einsum("ij,ij->j", np.conj(psi), G)
    G -= psi * coefs[None, :]
    return G


def solve_adjoint(
    op,
    psi: np.ndarray,
    eigenvalues: np.ndarray,
    G: np.ndarray,
    tol: float = 1e-7,
    maxiter: int = 400,
    ledger=None,
) -> BlockMinresResult:
    """Solve ``(H - eps_i) p_i = g_i`` with projected, preconditioned block
    MINRES; ``tol`` is relative to the block's largest ``g_i``.

    The preconditioner is the kinetic part of ``H - eps_i`` in the Löwdin
    basis, ``D^{-1/2} (K/2 + sigma_i M) D^{-1/2}`` with ``M = D`` the
    diagonal mass, inverted exactly for the whole block by the mesh's fast
    diagonalization (:meth:`repro.fem.fdm.FastDiagonalization.solve`) and
    projected with ``Q_i = I - psi_i psi_i^H`` like everything else the
    recurrence sees.  ``sigma_i = max(-eps_i, SIGMA_FLOOR)`` makes it the
    exact inverse wherever the potential has decayed, which is what keeps
    the iteration count flat under mesh refinement.
    """
    mesh = op.mesh
    fdm = mesh.fdm
    dsqrt = np.sqrt(mesh.mass_diag[mesh.free])[:, None]
    # (K/2 + sigma M)^{-1} = 2 (K + 2 sigma M)^{-1}; the factor 2 is dropped
    # (MINRES does not see a rescaled preconditioner)
    eps = np.asarray(eigenvalues, dtype=float)
    shifts2 = 2.0 * np.maximum(-eps, SIGMA_FLOOR)

    def project(Y, cols):
        p = psi[:, cols]
        return Y - p * np.einsum("ij,ij->j", np.conj(p), Y)

    def precondition(R, cols):
        # R is a projected Krylov vector already: Q on the output suffices
        if ledger is not None:
            ledger.add("fdm_gemm", fdm.flops * len(cols))
        return project(dsqrt * fdm.solve(dsqrt * R, shifts2[cols]), cols)

    with kernel_region("Adjoint", ledger):
        return block_minres(
            op.apply,
            G,
            shifts=eps,
            precondition=precondition,
            project=project,
            tol=tol,
            maxiter=maxiter,
        )


def potential_gradient(
    mesh: Mesh3D, psi: np.ndarray, P: np.ndarray
) -> np.ndarray:
    """Steepest-descent field ``u(r) = sum_i p_i psi_i`` on all nodes.

    Converts the discrete gradient (p .* psi summed over states, living on
    the Löwdin coefficients) to an L2 function-space gradient by dividing by
    the diagonal mass.
    """
    g_free = np.real(np.einsum("ij,ij->i", np.conj(P), psi))
    out = np.zeros(mesh.nnodes)
    out[mesh.free] = g_free / mesh.mass_diag[mesh.free]
    return out
