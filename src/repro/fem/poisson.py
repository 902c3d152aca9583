"""Matrix-free finite-element Poisson solver (electrostatics, "EP" step).

Solves the weak-form problem ``K v = 4*pi*M*rho`` for the electrostatic
potential of a charge (number-)density ``rho`` on the spectral-element mesh.
The mesh's tensor structure gives the exact separable inverse of ``K``
(:class:`repro.fem.fdm.FastDiagonalization`, six small GEMMs), which is the
preconditioner of a conjugate-gradient loop that always starts from zero:
the first step lands on the solution, and the one batched cell-level
stiffness application of :class:`repro.fem.assembly.CellStiffness` it costs
*measures* the residual ``|b - K x| / |b|`` that :class:`PoissonResult`
reports.  ``tol`` is therefore a verified bound; further steps, if rounding
ever asks for them, are iterative refinement along the same loop.  The
solve keeps no state between calls — the potential is a pure function of
``rho`` — and a non-finite or unconverged result raises a structured
:class:`~repro.resilience.ResilienceError` instead of being returned.

Boundary handling:

* isolated systems — inhomogeneous Dirichlet values from a multipole
  (monopole + dipole) expansion of the net charge, imposed by lifting;
* fully periodic systems — the right-hand side is projected onto the range
  of ``K`` (the cell must be charge neutral: electrons + smeared cores), the
  pseudo-inverse ignores the constant mode, and the potential is returned
  in the zero-mean gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import add_counter, trace_region
from repro.resilience.faults import ResilienceError

from .assembly import CellStiffness
from .mesh import Mesh3D
from .workspace import Workspace

__all__ = ["PoissonSolver", "multipole_boundary_values"]


def multipole_boundary_values(
    mesh: Mesh3D, rho_full: np.ndarray, center: np.ndarray | None = None
) -> np.ndarray:
    """Dirichlet values of the potential of ``rho`` on the outer boundary.

    Uses the monopole + dipole far-field expansion about ``center`` (default:
    charge-weighted centroid falls back to the box center for near-neutral
    densities).  Returns a full-node array that is zero away from the
    boundary.
    """
    coords = mesh.node_coords
    if center is None:
        center = 0.5 * mesh.lengths
    center = np.asarray(center, dtype=float)
    q = float(mesh.integrate(rho_full))
    dip = mesh.integrate(rho_full[:, None] * (coords - center))
    out = np.zeros(mesh.nnodes)
    b = mesh.boundary_mask
    d = coords[b] - center
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    out[b] = q / r + (d @ dip) / r**3
    return out


@dataclass
class PoissonResult:
    """Converged potential plus solver diagnostics."""

    potential: np.ndarray  #: full-node potential values
    iterations: int
    residual: float  #: measured ``|b - K x| / |b|`` on the free DoFs
    converged: bool


class PoissonSolver:
    """Fast-diagonalization-preconditioned CG Poisson solver."""

    def __init__(
        self, mesh: Mesh3D, ledger=None, workspace: Workspace | None = None
    ) -> None:
        self.mesh = mesh
        self.stiff = CellStiffness(mesh, kfrac=None, ledger=ledger)
        self.ledger = ledger
        self.fdm = mesh.fdm  # built here (once per mesh), not in the first solve
        self.workspace = workspace if workspace is not None else Workspace()
        self._fully_periodic = mesh.free.size == mesh.nnodes

    def solve(
        self,
        rho_full: np.ndarray,
        boundary_values: np.ndarray | None = None,
        tol: float = 1e-10,
        maxiter: int = 50,
    ) -> PoissonResult:
        """Solve ``-lap v = 4*pi*rho`` for the full-node potential ``v``.

        Parameters
        ----------
        rho_full:
            Charge number-density sampled at all mesh nodes.
        boundary_values:
            Full-node array with Dirichlet values at boundary nodes (see
            :func:`multipole_boundary_values`); ignored on fully periodic
            meshes.

        Raises
        ------
        ResilienceError
            When the result is non-finite or ``maxiter`` steps did not
            bring the measured residual under ``tol``.
        """
        mesh = self.mesh
        b_full = 4.0 * np.pi * mesh.mass_diag * rho_full
        if self._fully_periodic:
            res = self._solve_periodic(b_full, tol, maxiter)
        else:
            res = self._solve_dirichlet(b_full, boundary_values, tol, maxiter)
        if not res.converged:  # also a NaN residual: it compares False
            raise ResilienceError(
                "poisson",
                f"residual {res.residual:.3e} not under tol {tol:.1e} after "
                f"{res.iterations} CG iterations (maxiter {maxiter})",
            )
        return res

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        if self.ledger is not None:
            self.ledger.add("fdm_gemm", self.fdm.flops)
        return self.fdm.solve(r)

    def _solve_dirichlet(
        self,
        b_full: np.ndarray,
        boundary_values: np.ndarray | None,
        tol: float,
        maxiter: int,
    ) -> PoissonResult:
        mesh = self.mesh
        free = mesh.free
        lift = np.zeros(mesh.nnodes)
        if boundary_values is not None:
            lift[mesh.boundary_mask] = boundary_values[mesh.boundary_mask]
            b_full = b_full - self.stiff.apply_full(lift)
        b = b_full[free]

        ws = self.workspace

        def apply_K(x: np.ndarray) -> np.ndarray:
            """CG matvec into a pooled workspace buffer.

            The returned array is workspace-owned — valid until the next
            ``apply_K`` on this thread; ``_pcg`` consumes it immediately.
            """
            # pooled free->full expansion; boundary rows stay zero by invariant
            full = ws.get(
                "poisson_full", (mesh.nnodes,), np.float64, zero_on_create=True
            )
            full[free] = x
            y = self.stiff.apply_full(full, workspace=ws)
            Ap = ws.get("poisson_Ap", (free.size,), np.float64)
            np.take(y, free, out=Ap)
            return Ap

        with trace_region("Poisson-CG", ndof=int(free.size)):
            x, it, res, ok = _pcg(apply_K, b, self._precondition, tol, maxiter)
            add_counter("iterations", it)
        lift[free] = x  # lift is zero on the free rows: it becomes v
        return PoissonResult(lift, it, res, ok)

    def _solve_periodic(
        self, b_full: np.ndarray, tol: float, maxiter: int
    ) -> PoissonResult:
        mesh = self.mesh
        w = mesh.mass_diag
        vol = float(np.sum(w))
        # Project the RHS onto the range of K (remove the constant component).
        b = b_full - w * (np.sum(b_full) / vol)

        def apply_K(x: np.ndarray) -> np.ndarray:
            return self.stiff.apply_full(x, workspace=self.workspace)

        with trace_region("Poisson-CG", ndof=int(mesh.nnodes), periodic=True):
            x, it, res, ok = _pcg(apply_K, b, self._precondition, tol, maxiter)
            add_counter("iterations", it)
        # zero-mean gauge on the potential only: the residual lives in the
        # range of K already, and the pseudo-inverse ignores the constant
        x -= np.dot(w, x) / vol
        return PoissonResult(x, it, res, ok)


def _pcg(
    apply_A, b: np.ndarray, precondition, tol: float, maxiter: int
) -> tuple[np.ndarray, int, float, bool]:
    """Preconditioned conjugate gradients from a zero start (SPD systems).

    ``precondition(r)`` applies an approximate inverse of ``A``; with the
    exact one the first step is the solve and the ``apply_A`` it performs
    is the residual check.  Returns ``(x, iterations, |r|/|b|, converged)``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = max(float(np.linalg.norm(b)), 1e-300)
    res = float(np.linalg.norm(r)) / bnorm
    p = None
    rz = 0.0
    it = 0
    while res > tol and it < maxiter:
        z = precondition(r)
        rz_new = float(np.dot(r, z))
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = apply_A(p)
        alpha = rz / float(np.dot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r)) / bnorm
        it += 1
    return x, it, res, res <= tol
