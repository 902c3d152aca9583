"""Integration tests: full SCF ground states (isolated, spin, periodic)."""

import numpy as np
import pytest

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions, homo_lumo_gap
from repro.core.hamiltonian import Electrostatics, gaussian_self_energy
from repro.fem.poisson import PoissonSolver, multipole_boundary_values
from repro.obs import InMemoryAggregator, get_tracer, set_enabled
from repro.pipeline import MOLECULE_LIBRARY
from repro.xc.gga import PBE
from repro.xc.lda import LDA


def _h2(**kw):
    config = AtomicConfiguration(["H", "H"], [[0, 0, 0], [1.4, 0, 0]])
    defaults = dict(padding=8.0, cells_per_axis=4, degree=4)
    defaults.update(kw)
    return DFTCalculation(config, **defaults)


@pytest.fixture(scope="module")
def h2_lda():
    calc = _h2(xc=LDA())
    return calc, calc.run()


def test_h2_lda_converges(h2_lda):
    calc, res = h2_lda
    assert res.converged
    assert res.n_iterations < 25
    # electron count preserved
    assert np.isclose(float(calc.mesh.integrate(res.rho)), 2.0, atol=1e-8)
    # bound molecule with a reasonable total energy
    assert -1.2 < res.energy < -0.4


def test_h2_density_positive_and_peaked_at_atoms(h2_lda):
    calc, res = h2_lda
    assert np.all(res.rho >= -1e-12)
    # density maximum near an atom
    imax = np.argmax(res.rho)
    d = np.linalg.norm(
        calc.mesh.node_coords[imax] - calc.config.positions, axis=1
    ).min()
    assert d < 1.0


def test_h2_homo_occupied_gap_positive(h2_lda):
    _, res = h2_lda
    assert np.isclose(res.occupations[0][0], 2.0, atol=1e-6)
    assert homo_lumo_gap(res) > 0.05


def test_h2_energy_breakdown_consistency(h2_lda):
    calc, res = h2_lda
    b = res.breakdown
    assert np.isclose(b.total, res.energy)
    assert np.isclose(b.free_energy, res.free_energy)
    assert b.xc < 0  # XC energy negative
    assert np.isclose(
        b.free_energy, b.total - b.temperature * b.entropy, atol=1e-12
    )


def test_h2_hartree_extraction_consistent(h2_lda):
    """v_tot - v_N equals the Hartree potential of rho (weak check)."""
    calc, res = h2_lda
    mesh = calc.mesh
    v_n = calc.config.external_potential(mesh.node_coords)
    v_h = res.v_tot - v_n
    # Hartree potential of 2 electrons: positive, ~ 2/r in the far field
    c = calc.config.positions.mean(axis=0)
    r = np.linalg.norm(mesh.node_coords - c, axis=1)
    far = (r > 5.0) & (r < 7.0)
    assert np.all(v_h[far] > 0)
    assert np.allclose(v_h[far] * r[far], 2.0, rtol=0.2)


def test_h2_binding_curve_and_size_consistency():
    """On a fixed mesh: binding minimum near d~2.5 (soft-core model world),
    repulsive wall at short range, and the d->inf limit approaches twice the
    isolated-atom energy (restricted-KS static-correlation overshoot aside).
    """
    from repro.fem.mesh import uniform_mesh

    L = 20.0
    mesh = uniform_mesh((L, L, L), (4, 4, 4), degree=5)
    energies = {}
    for d in (1.0, 2.5, 6.0):
        config = AtomicConfiguration(
            ["H", "H"], [[L / 2 - d / 2, L / 2, L / 2], [L / 2 + d / 2, L / 2, L / 2]]
        )
        energies[d] = DFTCalculation(config, xc=LDA(), mesh=mesh).run().energy
    atom = AtomicConfiguration(["H"], [[L / 2, L / 2, L / 2]])
    e_atom = DFTCalculation(atom, xc=LDA(), mesh=mesh).run().energy
    assert energies[2.5] < energies[1.0]  # repulsive wall
    assert energies[2.5] < energies[6.0]  # bound minimum
    assert energies[2.5] < 2 * e_atom  # binds relative to separated atoms
    assert abs(energies[6.0] - 2 * e_atom) < 0.05  # approximate size consistency


def test_energy_agreement_across_degrees(h2_lda):
    """Energies at p=4 and p=5 agree to discretization accuracy.

    (The GLL-lumped spectral element is not strictly variational, so we test
    convergence consistency rather than monotonicity.)
    """
    _, res4 = h2_lda
    calc5 = _h2(xc=LDA(), degree=5)
    res5 = calc5.run()
    assert abs(res5.energy - res4.energy) < 2e-2


def test_pbe_differs_from_lda():
    res_pbe = _h2(xc=PBE()).run()
    res_lda = _h2(xc=LDA()).run()
    assert res_pbe.converged
    assert abs(res_pbe.energy - res_lda.energy) > 1e-3


def test_spin_polarized_li_moment():
    li = AtomicConfiguration(["Li"], [[0, 0, 0]])
    calc = DFTCalculation(
        li, padding=10.0, cells_per_axis=4, degree=4, spin_polarized=True,
        options=SCFOptions(max_iterations=60, temperature=2e-3),
    )
    res = calc.run(initial_polarization=0.3)
    assert res.converged
    mag = float(calc.mesh.integrate(res.rho_spin[:, 0] - res.rho_spin[:, 1]))
    assert np.isclose(mag, 1.0, atol=1e-3)


def test_periodic_kpoint_dispersion():
    """Periodic H chain: k=0 and k=1/2 give different band energies."""
    lat = np.diag([4.0, 12.0, 12.0])
    chain = AtomicConfiguration(
        ["H"], [[2.0, 6.0, 6.0]], lattice=lat, pbc=(True, False, False)
    )
    kpts = [((0.0, 0.0, 0.0), 0.5), ((0.5, 0.0, 0.0), 0.5)]
    calc = DFTCalculation(
        chain, padding=6.0, cells_per_axis=(2, 4, 4), degree=4, kpoints=kpts,
        options=SCFOptions(max_iterations=40, temperature=5e-3),
    )
    res = calc.run()
    assert res.converged
    e_gamma = res.eigenvalues[0][0]
    e_x = res.eigenvalues[1][0]
    assert e_x - e_gamma > 0.05  # bottom of the band disperses upward


def test_mixed_precision_scf_matches_fp64():
    """Paper Sec 5.4.2: FP32 off-diagonal blocks retain FP64-level accuracy."""
    res64 = _h2(xc=LDA()).run()
    calc32 = _h2(xc=LDA(), options=SCFOptions(mixed_precision=True))
    res32 = calc32.run()
    assert res32.converged
    assert abs(res32.energy - res64.energy) < 1e-6


def test_scf_runs_no_lanczos(monkeypatch):
    """The filter's upper bound is the operator's closed form: an SCF, its
    random-start passes included, and a band structure at its potential
    make no Lanczos call."""
    import repro.core.chebyshev as chebyshev_mod
    import repro.core.scf as scf_mod
    from repro.core.bands import band_structure

    calls = []
    for mod in (chebyshev_mod, scf_mod):
        real = mod.lanczos_upper_bound
        monkeypatch.setattr(
            mod, "lanczos_upper_bound",
            lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw),
        )
    calc = _h2(cells_per_axis=3, degree=3, options=SCFOptions(max_iterations=3))
    res = calc.run()
    assert res.n_iterations == 3
    bands = band_structure(calc.mesh, res, [(0.0, 0.0, 0.0)], nbands=2)
    assert bands.shape == (1, 2)
    assert calls == []


def test_nstates_too_small_raises():
    config = AtomicConfiguration(["He"], [[0, 0, 0]])
    with pytest.raises(ValueError):
        DFTCalculation(config, nstates=0, cells_per_axis=3, degree=3)


def test_self_energy_value():
    cfg = AtomicConfiguration(["H"], [[0, 0, 0]])
    e = gaussian_self_energy(cfg)
    assert np.isclose(e, 1.0 / (0.8 * np.sqrt(2 * np.pi)))


def test_electrostatics_neutral_system_energy_matches_pieces():
    """E_es = E_H + E_ext + E_nn for an isolated neutral system."""
    config = AtomicConfiguration(["H", "H"], [[6.0, 6.0, 6.0], [7.4, 6.0, 6.0]])
    from repro.fem.mesh import uniform_mesh

    mesh = uniform_mesh((13.4, 12.0, 12.0), (5, 5, 5), degree=6)
    es = Electrostatics(mesh, config)
    # a simple normalized two-electron density
    c = config.positions.mean(axis=0)
    r2 = np.sum((mesh.node_coords - c) ** 2, axis=1)
    rho = np.exp(-r2 / 2.0)
    rho *= 2.0 / float(mesh.integrate(rho))
    v_tot = es.solve(rho, tol=1e-11)
    e_total = es.electrostatic_energy(rho, v_tot)

    # piecewise: Hartree from a separate Poisson solve of rho alone
    solver = PoissonSolver(mesh)
    bc = multipole_boundary_values(mesh, rho)
    v_h = solver.solve(rho, boundary_values=bc, tol=1e-11).potential
    e_h = 0.5 * float(mesh.integrate(rho * v_h))
    v_n = config.external_potential(mesh.node_coords)
    e_ext = float(mesh.integrate(rho * v_n))
    e_nn = config.nuclear_repulsion()
    assert np.isclose(e_total, e_h + e_ext + e_nn, atol=2e-3)


# ---------------------------------------------------------------------------
# state-free electrostatics (fast-diagonalization Poisson, no warm start)


def _h2o(**opts):
    symbols, positions, *_ = MOLECULE_LIBRARY["H2O"]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    return DFTCalculation(
        config, xc=LDA(), degree=3, cells_per_axis=3, options=SCFOptions(**opts)
    )


def test_electrostatics_solve_is_a_pure_function_of_rho():
    """rho_A, rho_B, rho_A again: the third potential has the first's bits."""
    calc = _h2(cells_per_axis=3, degree=3)
    es, mesh = calc.driver.electrostatics, calc.mesh
    r2 = np.sum((mesh.node_coords - 0.5 * mesh.lengths) ** 2, axis=1)
    rho_a = np.exp(-r2 / 2.0)
    rho_a *= 2.0 / float(mesh.integrate(rho_a))
    rho_b = np.exp(-r2 / 5.0)
    rho_b *= 2.0 / float(mesh.integrate(rho_b))
    first = es.solve(rho_a, tol=1e-12).copy()
    es.solve(rho_b, tol=1e-12)
    assert np.array_equal(es.solve(rho_a, tol=1e-12), first)


def test_h2o_scf_takes_one_poisson_iteration_per_ep_call():
    """Count guard: a silent fall-back to many CG iterations would show."""
    tracer = get_tracer()
    prev = set_enabled(True)
    agg = tracer.add_sink(InMemoryAggregator())
    try:
        res = _h2o(max_iterations=40).run()
    finally:
        tracer.remove_sink(agg)
        set_enabled(prev)
    assert res.converged
    ep = [n for n in agg.nodes() if n.name == "EP"]
    cg = [n for n in agg.nodes() if n.name == "Poisson-CG"]
    ep_calls = sum(n.calls for n in ep)
    assert ep_calls == res.n_iterations + 1  # one per step + final evaluation
    assert sum(n.calls for n in cg) == ep_calls
    assert sum(n.counters["iterations"] for n in cg) == ep_calls
