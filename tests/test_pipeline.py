"""End-to-end pipeline: QMB reference -> invDFT -> MLXC sample -> deploy."""

import numpy as np
import pytest

from repro.pipeline import (
    MOLECULE_LIBRARY,
    invert_reference,
    qmb_reference,
    train_mlxc,
)


@pytest.fixture(scope="module")
def h2_ref():
    return qmb_reference("H2", cells_per_axis=4, degree=3)


def test_qmb_reference_h2(h2_ref):
    ref = h2_ref
    # FCI is variational within its orbital basis (vs the single
    # determinant), and lands in the physical energy window
    assert -1.2 < ref.e_fci < -0.3
    n = float(ref.calc.mesh.integrate(ref.rho_qmb_spin.sum(axis=1)))
    assert np.isclose(n, 2.0, atol=1e-8)
    # closed-shell: spin densities identical
    assert np.allclose(ref.rho_qmb_spin[:, 0], ref.rho_qmb_spin[:, 1], atol=1e-12)


def test_library_molecule_sectors_consistent():
    """Every library entry's FCI sector matches its electron count."""
    from repro.atoms.pseudo import AtomicConfiguration

    for name, (symbols, pos, na, nb, n_orb) in MOLECULE_LIBRARY.items():
        cfg = AtomicConfiguration(list(symbols), np.asarray(pos, float))
        assert na + nb == cfg.n_electrons, name
        assert n_orb >= max(na, nb), name


@pytest.mark.slow
def test_invert_reference_produces_sample(h2_ref):
    sample, inv = invert_reference(h2_ref, max_iterations=25)
    # exact E_xc is negative and of chemical magnitude
    assert -2.0 < sample.exc_target < -0.1
    # the sample's density is the FCI density
    assert np.allclose(sample.rho_spin, h2_ref.rho_qmb_spin)
    # v_xc is negative where the density lives (exchange dominated)
    rho = h2_ref.rho_qmb_spin.sum(axis=1)
    core = rho > 0.5 * rho.max()
    assert np.all(sample.v_target[core, 0] < 0)


@pytest.mark.slow
def test_train_and_deploy_mlxc_small(h2_ref):
    """Train on H2 alone; the deployed functional must self-consistently
    reproduce the FCI energy of H2 far better than the LDA seed."""
    from repro.core import DFTCalculation, SCFOptions

    sample, _ = invert_reference(h2_ref, max_iterations=60)
    mlxc, history = train_mlxc([sample], epochs=150, warm_start="lda")
    assert history[-1]["total"] < history[0]["total"]
    res = DFTCalculation(
        h2_ref.calc.config, xc=mlxc, mesh=h2_ref.calc.mesh,
        options=SCFOptions(max_iterations=40),
    ).run()
    err_mlxc = abs(res.energy - h2_ref.e_fci)
    err_lda = abs(h2_ref.e_ks_seed - h2_ref.e_fci)
    assert res.converged
    # at these deliberately tiny settings (degree-3 mesh, 60 invDFT
    # iterations, 150 epochs) the deployed functional must at least match
    # the LDA seed; the production-quality comparison lives in
    # benchmarks/bench_fig3_mlxc_accuracy.py with the shipped weights
    assert err_mlxc < 1.2 * err_lda


def _qmb_reference_with_rdms(monkeypatch, name):
    """``qmb_reference`` at small settings, with the orbitals and the FCI
    result it built its density from."""
    import repro.qmb.fci as fci

    seen = {}
    ground_state = fci.FCISolver.ground_state
    density_from_rdm = fci.density_from_rdm

    def record_ground_state(self):
        seen["fci"] = ground_state(self)
        return seen["fci"]

    def record_density(phi, rdm1):
        seen["phi"] = phi
        return density_from_rdm(phi, rdm1)

    monkeypatch.setattr(fci.FCISolver, "ground_state", record_ground_state)
    monkeypatch.setattr(fci, "density_from_rdm", record_density)
    ref = qmb_reference(name, cells_per_axis=3, degree=2)
    ref.calc.close()
    return ref, seen["phi"], seen["fci"]


@pytest.mark.parametrize("name", ["H2", "LiH"])
def test_qmb_reference_closed_shell_spin_columns_are_equal(monkeypatch, name):
    """n_alpha == n_beta: both columns are the density of the spin-averaged
    RDM, bitwise equal, and they add up to the two RDMs' density."""
    from repro.qmb.fci import density_from_rdm

    ref, phi, gs = _qmb_reference_with_rdms(monkeypatch, name)
    rho = ref.rho_qmb_spin
    np.testing.assert_array_equal(rho[:, 0], rho[:, 1])
    old = density_from_rdm(phi, gs.rdm1_alpha) + density_from_rdm(phi, gs.rdm1_beta)
    np.testing.assert_allclose(rho.sum(axis=1), old, rtol=0.0, atol=1e-14)


def test_qmb_reference_open_shell_keeps_both_rdms(monkeypatch):
    from repro.qmb.fci import density_from_rdm

    ref, phi, gs = _qmb_reference_with_rdms(monkeypatch, "Li")
    assert ref.n_alpha != ref.n_beta
    np.testing.assert_array_equal(
        ref.rho_qmb_spin[:, 0], density_from_rdm(phi, gs.rdm1_alpha)
    )
    np.testing.assert_array_equal(
        ref.rho_qmb_spin[:, 1], density_from_rdm(phi, gs.rdm1_beta)
    )
