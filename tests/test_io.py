"""Checkpoint/restart and XYZ interchange."""

import numpy as np
import pytest

from repro.atoms.io import read_xyz, write_xyz
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


def test_xyz_roundtrip_isolated(tmp_path):
    cfg = AtomicConfiguration(
        ["H", "He", "Li"], [[0, 0, 0], [1.5, 0.25, -0.75], [3.0, 1.0, 2.0]]
    )
    p = str(tmp_path / "mol.xyz")
    write_xyz(p, cfg, comment="test molecule")
    back = read_xyz(p)
    assert back.symbols == cfg.symbols
    assert np.allclose(back.positions, cfg.positions, atol=1e-10)
    assert back.lattice is None


def test_xyz_roundtrip_periodic(tmp_path):
    lat = np.diag([4.0, 5.0, 6.0])
    cfg = AtomicConfiguration(
        ["Mg", "Mg"], [[0, 0, 0], [2.0, 2.5, 3.0]], lattice=lat,
        pbc=(True, False, True),
    )
    p = str(tmp_path / "cell.xyz")
    write_xyz(p, cfg)
    back = read_xyz(p)
    assert np.allclose(back.lattice, lat)
    assert back.pbc == (True, False, True)
    assert back.n_electrons == cfg.n_electrons


def test_xyz_rejects_garbage(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("")
    with pytest.raises(ValueError):
        read_xyz(str(p))


def test_xyz_benchmark_system_roundtrip(tmp_path):
    """The full DislocMgY geometry survives an interchange round-trip."""
    from repro.materials.systems import build_system

    s = build_system("DislocMgY")
    p = str(tmp_path / "disloc.xyz")
    write_xyz(p, s.config, comment="DislocMgY")
    back = read_xyz(p)
    assert back.natoms == 6016
    assert back.n_electrons == 12041
    assert np.allclose(back.positions, s.config.positions, atol=1e-9)
