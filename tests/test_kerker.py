"""Kerker mixing preconditioner: analytic damping and SCF integration."""

import numpy as np
import pytest

from repro.core import DFTCalculation, SCFOptions
from repro.core.kerker import KerkerPreconditioner
from repro.fem.assembly import CellStiffness
from repro.fem.mesh import Mesh3D, graded_edges, uniform_mesh
from repro.materials.lattice import hcp_orthorhombic, supercell
from repro.xc.lda import LDA


def test_kerker_analytic_damping_factor():
    """P cos(gx) = g^2/(g^2+k0^2) cos(gx) on a periodic box (exact)."""
    L = 6.0
    mesh = uniform_mesh((L,) * 3, (3, 3, 3), degree=4, pbc=(True,) * 3)
    k0 = 0.8
    P = KerkerPreconditioner(mesh, k0=k0)
    g = 2 * np.pi / L
    r = np.cos(g * mesh.node_coords[:, 0])
    ratio = float(
        np.dot(r * mesh.mass_diag, P(r)) / np.dot(r * mesh.mass_diag, r)
    )
    assert np.isclose(ratio, g**2 / (g**2 + k0**2), rtol=1e-4)


def test_kerker_damps_long_wavelengths_more():
    """Lower-q components are damped harder — the anti-sloshing property."""
    L = 8.0
    mesh = uniform_mesh((L,) * 3, (4, 3, 3), degree=3, pbc=(True,) * 3)
    P = KerkerPreconditioner(mesh, k0=0.8)
    x = mesh.node_coords[:, 0]
    ratios = []
    for n in (1, 2, 4):
        g = 2 * np.pi * n / L
        r = np.cos(g * x)
        ratios.append(
            float(np.dot(r * mesh.mass_diag, P(r)) / np.dot(r * mesh.mass_diag, r))
        )
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-9


def test_kerker_short_wavelength_passthrough():
    """q >> k0 residuals pass through nearly unchanged."""
    L = 4.0
    mesh = uniform_mesh((L,) * 3, (4, 4, 4), degree=3, pbc=(True,) * 3)
    P = KerkerPreconditioner(mesh, k0=0.5)
    g = 2 * np.pi * 4 / L  # high-q mode
    r = np.cos(g * mesh.node_coords[:, 0])
    ratio = float(
        np.dot(r * mesh.mass_diag, P(r)) / np.dot(r * mesh.mass_diag, r)
    )
    assert ratio > 0.9


def test_kerker_matches_dense_helmholtz_solve():
    """P r = r - k0^2 (K + k0^2 M)^-1 M r against the dense operator on a
    graded mesh with mixed boundary conditions (periodic x, y; Dirichlet z)."""
    edges = tuple(
        graded_edges(L, n, center=0.4 * L, ratio=2.0)
        for L, n in zip((4.0, 5.0, 6.0), (2, 3, 2))
    )
    mesh = Mesh3D(edges=edges, degree=3, pbc=(True, True, False))
    k0 = 0.8
    free, w = mesh.free, mesh.mass_diag
    eye = np.zeros((mesh.nnodes, free.size))
    eye[free, np.arange(free.size)] = 1.0
    helm = CellStiffness(mesh).apply_full(eye)[free] + k0**2 * np.diag(w[free])
    r = np.random.default_rng(3).normal(size=mesh.nnodes)
    expected = r.copy()
    expected[free] -= k0**2 * np.linalg.solve(helm, (w * r)[free])
    got = KerkerPreconditioner(mesh, k0=k0)(r)
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.array_equal(got[mesh.boundary_mask], r[mesh.boundary_mask])


def test_kerker_spin_stack_and_validation():
    mesh = uniform_mesh((4.0,) * 3, (2, 2, 2), degree=2, pbc=(True,) * 3)
    P = KerkerPreconditioner(mesh, k0=1.0)
    r = np.random.default_rng(0).normal(size=(mesh.nnodes, 2))
    out = P(r)
    assert out.shape == r.shape
    assert np.allclose(out[:, 0], P(r[:, 0]))
    with pytest.raises(ValueError):
        KerkerPreconditioner(mesh, k0=0.0)


def test_kerker_scf_reaches_same_ground_state(monkeypatch):
    """A fully periodic cell mixes Kerker-preconditioned by default; turned
    off, the same Anderson step reaches the same energy in more iterations
    (Mg16: 11 instead of 8, the sloshing grows with the cell)."""
    import repro.core.scf

    lat, sym, frac = hcp_orthorhombic()
    cfg = supercell(lat, sym, frac, (1, 2, 2), pbc=(True, True, True))

    def run():
        return DFTCalculation(
            cfg, xc=LDA(), cells_per_axis=(2, 4, 4), degree=3,
            options=SCFOptions(max_iterations=60, temperature=5e-3),
        ).run()

    r1 = run()
    monkeypatch.setattr(repro.core.scf, "KERKER_K0", None)
    r0 = run()
    assert r0.converged and r1.converged
    assert np.isclose(r1.energy, r0.energy, atol=1e-6)
    assert r1.n_iterations < r0.n_iterations
