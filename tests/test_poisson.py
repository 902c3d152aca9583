"""Poisson solver: Gaussian charges, multipole BCs, periodic neutrality,
and the fast-diagonalization inverse behind it."""

import numpy as np
import pytest
from scipy.special import erf

from repro.fem.assembly import CellStiffness
from repro.fem.mesh import Mesh3D, graded_edges, uniform_mesh
from repro.fem.poisson import PoissonSolver, multipole_boundary_values
from repro.resilience import ResilienceError

PBC_KINDS = {
    "FFF": (False, False, False),
    "TTF": (True, True, False),
    "TTT": (True, True, True),
}


def _box_mesh(pbc, degree, ratio=1.0, ncells=(3, 2, 4), lengths=(5.0, 6.0, 7.0)):
    """Anisotropic box, optionally graded toward an off-center point."""
    edges = tuple(
        graded_edges(L, n, center=0.4 * L, ratio=ratio)
        for L, n in zip(lengths, ncells)
    )
    return Mesh3D(edges=edges, degree=degree, pbc=pbc)


def _gaussian_density(mesh, center, sigma, q=1.0):
    r2 = np.sum((mesh.node_coords - center) ** 2, axis=1)
    return q * np.exp(-r2 / (2 * sigma**2)) / (2 * np.pi * sigma**2) ** 1.5


def test_gaussian_potential_dirichlet():
    """Potential of a Gaussian charge: v(r) = erf(r / (sigma sqrt 2)) / r."""
    L = 16.0
    mesh = uniform_mesh((L, L, L), (5, 5, 5), degree=5)
    center = np.array([L / 2] * 3)
    sigma = 1.2
    rho = _gaussian_density(mesh, center, sigma)
    bc = multipole_boundary_values(mesh, rho, center=center)
    res = PoissonSolver(mesh).solve(rho, boundary_values=bc, tol=1e-10)
    assert res.converged
    r = np.sqrt(np.sum((mesh.node_coords - center) ** 2, axis=1))
    mask = (r > 1.0) & (r < 6.0)
    exact = erf(r[mask] / (sigma * np.sqrt(2))) / r[mask]
    assert np.allclose(res.potential[mask], exact, atol=3e-4)


def test_monopole_boundary_values():
    L = 10.0
    mesh = uniform_mesh((L, L, L), (4, 4, 4), degree=5)
    center = np.array([L / 2] * 3)
    rho = _gaussian_density(mesh, center, 1.1, q=2.5)
    bc = multipole_boundary_values(mesh, rho, center=center)
    b = mesh.boundary_mask
    r = np.sqrt(np.sum((mesh.node_coords[b] - center) ** 2, axis=1))
    assert np.allclose(bc[b], 2.5 / r, rtol=1e-3)


def test_dipole_correction_improves_offcenter():
    """Off-center charge: monopole+dipole BC beats pure monopole."""
    L = 12.0
    mesh = uniform_mesh((L, L, L), (4, 4, 4), degree=5)
    center = np.array([L / 2] * 3)
    src = center + np.array([1.2, 0.0, 0.0])
    rho = _gaussian_density(mesh, src, 1.0)
    bc = multipole_boundary_values(mesh, rho, center=center)
    b = mesh.boundary_mask
    r_src = np.sqrt(np.sum((mesh.node_coords[b] - src) ** 2, axis=1))
    exact = 1.0 / r_src
    r_c = np.sqrt(np.sum((mesh.node_coords[b] - center) ** 2, axis=1))
    mono = 1.0 / r_c
    err_bc = np.max(np.abs(bc[b] - exact))
    err_mono = np.max(np.abs(mono - exact))
    assert err_bc < 0.5 * err_mono


def test_periodic_neutral_solve():
    """Periodic cosine charge: -lap v = 4 pi rho has analytic solution."""
    L = 5.0
    mesh = uniform_mesh((L, L, L), (4, 3, 3), degree=4, pbc=(True, True, True))
    g = 2 * np.pi / L
    x = mesh.node_coords[:, 0]
    rho = np.cos(g * x)  # zero mean
    res = PoissonSolver(mesh).solve(rho, tol=1e-11)
    assert res.converged
    exact = 4 * np.pi * np.cos(g * x) / g**2
    # solution defined up to a constant; compare after mean removal
    v = res.potential - np.dot(mesh.mass_diag, res.potential) / L**3
    ex = exact - np.dot(mesh.mass_diag, exact) / L**3
    assert np.allclose(v, ex, atol=5e-4 * np.max(np.abs(ex)))


def test_solver_keeps_no_state_between_solves():
    """No warm start: a repeated right-hand side gives the same bits, at the
    same (single) iteration, whatever was solved in between."""
    L = 8.0
    mesh = uniform_mesh((L, L, L), (3, 3, 3), degree=3)
    center = np.array([L / 2] * 3)
    rho = _gaussian_density(mesh, center, 1.3)
    other = _gaussian_density(mesh, center + 0.7, 0.9, q=-2.0)
    bc = multipole_boundary_values(mesh, rho, center=center)
    solver = PoissonSolver(mesh)
    first = solver.solve(rho, boundary_values=bc, tol=1e-9)
    solver.solve(other, tol=1e-9)
    second = solver.solve(rho, boundary_values=bc, tol=1e-9)
    assert first.iterations == second.iterations == 1
    assert np.array_equal(first.potential, second.potential)


def test_convergence_with_mesh_refinement():
    """Potential error decreases with h-refinement at fixed degree."""
    L = 12.0
    sigma = 1.0
    errs = []
    for nc in (2, 4):
        mesh = uniform_mesh((L, L, L), (nc, nc, nc), degree=3)
        center = np.array([L / 2] * 3)
        rho = _gaussian_density(mesh, center, sigma)
        bc = multipole_boundary_values(mesh, rho, center=center)
        res = PoissonSolver(mesh).solve(rho, boundary_values=bc, tol=1e-11)
        r = np.sqrt(np.sum((mesh.node_coords - center) ** 2, axis=1))
        mask = (r > 1.5) & (r < 5.0)
        exact = erf(r[mask] / (sigma * np.sqrt(2))) / r[mask]
        errs.append(np.max(np.abs(res.potential[mask] - exact)))
    assert errs[1] < 0.2 * errs[0]


# ---------------------------------------------------------------------------
# fast diagonalization: the exact separable inverse of K (+ shift * M)


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("pbc", PBC_KINDS.values(), ids=PBC_KINDS.keys())
@pytest.mark.parametrize("ratio", [1.0, 2.0], ids=["uniform", "graded"])
def test_fdm_inverts_assembled_stiffness(ratio, pbc, degree):
    """``fdm.solve(K x) == x`` and ``fdm.solve((K + s M) x, s) == x``."""
    mesh = _box_mesh(pbc, degree, ratio)
    stiff = CellStiffness(mesh)
    free, w = mesh.free, mesh.mass_diag
    x = np.random.default_rng(7).normal(size=mesh.ndof)
    if all(pbc):  # K is singular: the pseudo-inverse returns the zero-mean x
        x -= np.dot(w, x) / np.sum(w)
    full = np.zeros(mesh.nnodes)
    full[free] = x
    kx = stiff.apply_full(full)[free]
    assert np.max(np.abs(mesh.fdm.solve(kx) - x)) < 1e-12
    shift = 0.7
    got = mesh.fdm.solve(kx + shift * (w * full)[free], shift=shift)
    assert np.max(np.abs(got - x)) < 1e-12


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("pbc", [PBC_KINDS["FFF"], PBC_KINDS["TTF"]], ids=["FFF", "TTF"])
@pytest.mark.parametrize("ratio", [1.0, 2.0], ids=["uniform", "graded"])
def test_fdm_block_solve_is_the_vector_solve_per_column(ratio, pbc, degree):
    """``solve`` on an ``(n, B)`` block with a scalar or per-column shift is
    the vector solve of each column (the ``B == 1`` block *is* the vector
    code), and it inverts ``K + sigma_j M`` column by column."""
    mesh = _box_mesh(pbc, degree, ratio)
    fdm, free, w = mesh.fdm, mesh.free, mesh.mass_diag
    B = np.random.default_rng(11).normal(size=(mesh.ndof, 4))
    shifts = np.array([0.05, 0.3, 0.7, 2.0])
    for shift in (0.0, 0.7):
        one = fdm.solve(B[:, :1], shift)
        assert one.shape == (mesh.ndof, 1)
        assert np.array_equal(one[:, 0], fdm.solve(B[:, 0], shift))
        assert np.array_equal(one, fdm.solve(B[:, :1], np.array([shift])))
        cols = np.stack([fdm.solve(B[:, j], shift) for j in range(4)], axis=1)
        assert np.max(np.abs(fdm.solve(B, shift) - cols)) <= 1e-13
    X = fdm.solve(B, shifts)
    cols = np.stack([fdm.solve(B[:, j], shifts[j]) for j in range(4)], axis=1)
    assert X.shape == B.shape and np.max(np.abs(X - cols)) <= 1e-13
    full = np.zeros((mesh.nnodes, 4))
    full[free] = X
    back = CellStiffness(mesh).apply_full(full)[free] + shifts * (w[:, None] * full)[free]
    assert np.max(np.abs(back - B)) <= 1e-12


def test_fdm_is_built_once_per_mesh():
    mesh = _box_mesh(PBC_KINDS["FFF"], 2)
    assert PoissonSolver(mesh).fdm is PoissonSolver(mesh).fdm is mesh.fdm
    assert mesh.fdm.shape == tuple(n - 2 for n in mesh.nnodes_axis)


@pytest.mark.parametrize("pbc", PBC_KINDS.values(), ids=PBC_KINDS.keys())
def test_poisson_converges_in_at_most_two_iterations(pbc):
    """The exact preconditioner makes the first CG step the solve; the
    reported residual is still the measured one."""
    mesh = _box_mesh(pbc, 4, ratio=2.0)
    center = 0.4 * mesh.lengths
    rho = _gaussian_density(mesh, center, 0.9) - _gaussian_density(
        mesh, center + 0.5, 1.1
    )
    rho -= mesh.integrate(rho) / np.sum(mesh.mass_diag)  # neutral
    bc = None if all(pbc) else multipole_boundary_values(mesh, rho)
    res = PoissonSolver(mesh).solve(rho, boundary_values=bc, tol=1e-12)
    assert res.converged and 1 <= res.iterations <= 2
    # independent residual check against the assembled operator
    stiff = CellStiffness(mesh)
    b = 4.0 * np.pi * mesh.mass_diag * rho
    r = (b - stiff.apply_full(res.potential))[mesh.free]
    assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(b[mesh.free])


def test_periodic_graded_solve_is_zero_mean():
    """Regression: the primal zero-mean projector must not be applied to the
    residual — on a graded periodic mesh that diverges under an exact
    preconditioner.  The gauge is fixed on the potential only."""
    mesh = _box_mesh(PBC_KINDS["TTT"], 4, ratio=2.0, ncells=(4, 4, 4))
    rho = _gaussian_density(mesh, 0.4 * mesh.lengths, 0.8)
    rho -= mesh.integrate(rho) / np.sum(mesh.mass_diag)
    res = PoissonSolver(mesh).solve(rho, tol=1e-12)
    assert res.converged and res.iterations <= 2
    assert abs(mesh.integrate(res.potential)) <= 1e-10


def test_nan_density_raises_structured_error():
    mesh = uniform_mesh((6.0,) * 3, (2, 2, 2), degree=3)
    rho = _gaussian_density(mesh, np.array([3.0] * 3), 1.0)
    rho[mesh.free[5]] = np.nan
    with pytest.raises(ResilienceError, match=r"\[poisson\].*nan.*0 CG iter") as ei:
        PoissonSolver(mesh).solve(rho, tol=1e-10)
    assert ei.value.site == "poisson"


def test_exhausted_maxiter_raises_structured_error():
    mesh = uniform_mesh((6.0,) * 3, (2, 2, 2), degree=3)
    rho = _gaussian_density(mesh, np.array([3.0] * 3), 1.0)
    with pytest.raises(ResilienceError, match=r"\[poisson\].*0 CG iterations"):
        PoissonSolver(mesh).solve(rho, tol=1e-10, maxiter=0)
