"""Checkpoint/restart of converged ground states."""

import numpy as np
import pytest

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.core.io import load_checkpoint, save_checkpoint
from repro.xc.lda import LDA


@pytest.fixture(scope="module")
def he_scf():
    config = AtomicConfiguration(["He"], [[0, 0, 0]])
    calc = DFTCalculation(config, xc=LDA(), padding=8.0, cells_per_axis=3, degree=3)
    return calc, calc.run()


def test_checkpoint_roundtrip(tmp_path, he_scf):
    calc, res = he_scf
    p = str(tmp_path / "he.npz")
    save_checkpoint(p, calc.mesh, res, include_wavefunctions=True)
    data = load_checkpoint(p, mesh=calc.mesh)
    assert np.allclose(data["rho_spin"], res.rho_spin)
    assert np.isclose(float(data["energy"]), res.energy)
    assert data["n_channels"] == 1
    ch = data["channels"][0]
    assert np.allclose(ch["eigenvalues"], res.eigenvalues[0])
    assert ch["psi"].shape == res.channels[0].psi.shape


def test_checkpoint_restart_converges_fast(tmp_path, he_scf):
    """Warm-starting from a checkpointed density finishes in a few steps."""
    calc, res = he_scf
    p = str(tmp_path / "he.npz")
    save_checkpoint(p, calc.mesh, res)
    data = load_checkpoint(p, mesh=calc.mesh)
    calc2 = DFTCalculation(
        calc.config, xc=LDA(), mesh=calc.mesh,
        options=SCFOptions(max_iterations=20),
    )
    res2 = calc2.run(rho0=data["rho_spin"])
    assert res2.converged
    assert res2.n_iterations <= max(3, res.n_iterations // 2)
    assert np.isclose(res2.energy, res.energy, atol=1e-6)


def test_checkpoint_mesh_mismatch_rejected(tmp_path, he_scf):
    from repro.fem.mesh import uniform_mesh

    calc, res = he_scf
    p = str(tmp_path / "he.npz")
    save_checkpoint(p, calc.mesh, res)
    other = uniform_mesh((5.0,) * 3, (2, 2, 2), degree=2)
    with pytest.raises(ValueError):
        load_checkpoint(p, mesh=other)

