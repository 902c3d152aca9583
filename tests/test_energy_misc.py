"""Energy assembly, FLOP-ledger timing, and miscellaneous core pieces."""

import time

import numpy as np
import pytest

from repro.core.energy import EnergyBreakdown, total_energy
from repro.fem.mesh import uniform_mesh
from repro.hpc.flops import FlopLedger


def test_energy_breakdown_total_and_free_energy():
    b = EnergyBreakdown(
        band=-2.0, potential_correction=0.5, electrostatic=-1.0, xc=-0.3,
        entropy=2.0, temperature=1e-3,
    )
    assert np.isclose(b.total, -2.8)
    assert np.isclose(b.free_energy, -2.8 - 2e-3)


def test_total_energy_assembly_consistency():
    """total_energy reproduces a hand-assembled sum on synthetic fields."""
    mesh = uniform_mesh((2.0,) * 3, (2, 2, 2), degree=2)
    n = mesh.nnodes
    rng = np.random.default_rng(0)
    rho_spin = np.abs(rng.normal(size=(n, 2)))
    v_eff = rng.normal(size=(n, 2))
    v_tot = rng.normal(size=n)
    rho_core = np.abs(rng.normal(size=n))
    evals = [np.array([-1.0, -0.5])]
    occs = [np.array([2.0, 1.0])]
    b = total_energy(
        mesh, evals, occs, [1.0], rho_spin, v_eff, v_tot, rho_core,
        self_energy=0.7, exc=-0.4, entropy=1.2, temperature=2e-3,
    )
    band = -2.0 - 0.5
    pot = -float(mesh.integrate(np.einsum("is,is->i", rho_spin, v_eff)))
    es = 0.5 * float(mesh.integrate((rho_spin.sum(1) - rho_core) * v_tot)) - 0.7
    assert np.isclose(b.total, band + pot + es - 0.4)
    assert np.isclose(b.free_energy, b.total - 2e-3 * 1.2)


def test_ledger_timed_context():
    led = FlopLedger()
    with led.timed("CF"):
        time.sleep(0.01)
    assert led["CF"].seconds > 0.005
    assert led["CF"].calls == 1
    led.reset()
    assert led.kernels() == []


def test_ledger_total_seconds():
    led = FlopLedger()
    with led.timed("A"):
        pass
    with led.timed("B"):
        pass
    assert led.total_seconds() >= 0.0
    assert set(led.kernels()) == {"A", "B"}


def test_xc_output_shapes():
    from repro.xc.lda import LDA

    out = LDA().evaluate(np.full(4, 0.3), np.full(4, 0.2))
    assert out.exc.shape == (4,)
    assert out.vrho.shape == (4, 2)
    assert out.vsigma is None


def test_scf_options_defaults_sane():
    from repro.core import SCFOptions
    from repro.core.mixing import ALPHA_DIRICHLET, ALPHA_PERIODIC
    from repro.core.scf import CHEB_DEGREE

    o = SCFOptions()
    assert o.mixing_alpha is None  # derived from the cell
    assert 0 < ALPHA_DIRICHLET < ALPHA_PERIODIC <= 1
    assert CHEB_DEGREE > 0
    assert o.block_size > 0


def test_mesh_integrate_rejects_wrong_shape():
    mesh = uniform_mesh((1.0,) * 3, (1, 1, 1), degree=2)
    with pytest.raises(ValueError):
        mesh.integrate(np.ones(3))
