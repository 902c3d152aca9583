"""Golden-value regression tests for the SCF molecule library, invDFT and
the non-self-consistent band structure.

Each test runs a short, fixed-settings calculation and compares scalar
observables (free energies, eigenvalue spectra, invDFT descent curves)
against JSON files under ``tests/golden/``.  Regenerate after an
*intentional* physics/algorithm change with::

    pytest tests/test_golden.py --update-golden

Tolerance rationale: every run here is fully deterministic (seeded RNGs,
fixed iteration counts, bit-reproducible fast-scatter path), so on one
machine the values reproduce bit for bit.  Across BLAS builds / thread
counts the dgemm reduction order can differ, which perturbs O(1 Ha)
energies at the ~1e-13 level and individual eigenvalues similarly.  We
assert at rtol=5e-11 / atol=1e-10 — three orders looser than cross-BLAS
noise, yet ~100x tighter than any genuine discretization or algorithm
change we have ever observed (those move the 6th decimal or more).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.core.bands import band_structure, kpath
from repro.invdft import InverseDFT
from repro.pipeline import MOLECULE_LIBRARY
from repro.xc.lda import LDA

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
RTOL, ATOL = 5e-11, 1e-10

#: fixed small-mesh settings — fast enough for tier 1, fine enough that
#: any physics regression shows up many orders above the tolerance
SCF_DEGREE, SCF_CELLS, SCF_MAX_ITER = 3, 3, 40


def _load(name: str) -> dict:
    path = GOLDEN_DIR / name
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing — generate it with "
            "`pytest tests/test_golden.py --update-golden`"
        )
    return json.loads(path.read_text())


def _store(name: str, payload: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_molecule(name: str) -> dict:
    symbols, positions, *_ = MOLECULE_LIBRARY[name]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    calc = DFTCalculation(
        config,
        xc=LDA(),
        degree=SCF_DEGREE,
        cells_per_axis=SCF_CELLS,
        options=SCFOptions(max_iterations=SCF_MAX_ITER),
    )
    res = calc.run()
    return {
        "converged": bool(res.converged),
        "n_iterations": int(res.n_iterations),
        "energy": float(res.energy),
        "free_energy": float(res.free_energy),
        "fermi_level": float(res.fermi_level),
        "eigenvalues": [np.asarray(ev).tolist() for ev in res.eigenvalues],
    }


@pytest.mark.parametrize("molecule", sorted(MOLECULE_LIBRARY))
def test_scf_molecule_golden(molecule, update_golden):
    got = _run_molecule(molecule)
    fname = f"scf_{molecule}.json"
    if update_golden:
        _store(fname, got)
        return
    want = _load(fname)
    assert got["converged"] == want["converged"]
    assert got["n_iterations"] == want["n_iterations"]
    for key in ("energy", "free_energy", "fermi_level"):
        assert got[key] == pytest.approx(want[key], rel=RTOL, abs=ATOL), key
    assert len(got["eigenvalues"]) == len(want["eigenvalues"])
    for ch_got, ch_want in zip(got["eigenvalues"], want["eigenvalues"]):
        np.testing.assert_allclose(ch_got, ch_want, rtol=RTOL, atol=ATOL)


def test_scf_default_energy_is_at_the_tight_energy():
    """At default tolerances the H2O energy is within 1e-7 Ha of a tightly
    converged one: the final energy is variational in the density error."""
    symbols, positions, *_ = MOLECULE_LIBRARY["H2O"]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    tight = SCFOptions(
        max_iterations=200, density_tol=1e-10, energy_tol=1e-12,
        poisson_tol=1e-12, filter_passes=2,
    )
    e_tight = DFTCalculation(
        config, xc=LDA(), degree=SCF_DEGREE, cells_per_axis=SCF_CELLS,
        options=tight,
    ).run().energy
    assert abs(_run_molecule("H2O")["energy"] - e_tight) <= 1e-7


def _run_invdft_farfield() -> dict:
    config = AtomicConfiguration(["He"], [[0, 0, 0]])
    calc = DFTCalculation(
        config, xc=LDA(), padding=6.0, cells_per_axis=3, degree=2, nstates=3
    )
    res = calc.run()
    inv = InverseDFT(
        calc.mesh, calc.config, res.rho_spin, nstates=3,
        minres_tol=1e-6, minres_maxiter=60,
    )
    out = inv.run(
        res.v_xc_spin.copy(), eta=1.0, max_iterations=5, tol=1e-14,
        farfield="coulombic",
    )
    mesh = calc.mesh
    b = mesh.boundary_mask
    rho = res.rho
    center = np.asarray(
        mesh.integrate(rho[:, None] * mesh.node_coords)
    ) / float(mesh.integrate(rho))
    r = np.linalg.norm(mesh.node_coords[b] - center, axis=1)
    return {
        "scf_free_energy": float(res.free_energy),
        "density_errors": [float(h["density_error"]) for h in out.history],
        "v_xc_norm": float(np.linalg.norm(out.v_xc)),
        "v_xc_min": float(out.v_xc.min()),
        "v_xc_max": float(out.v_xc.max()),
        "boundary_coulomb_residual": float(
            np.abs(out.v_xc[b, 0] + 1.0 / r).max()
        ),
    }


def test_invdft_farfield_golden(update_golden):
    got = _run_invdft_farfield()
    fname = "invdft_farfield_He.json"
    if update_golden:
        _store(fname, got)
        return
    want = _load(fname)
    np.testing.assert_allclose(
        got["density_errors"], want["density_errors"], rtol=RTOL, atol=ATOL
    )
    for key in (
        "scf_free_energy",
        "v_xc_norm",
        "v_xc_min",
        "v_xc_max",
    ):
        assert got[key] == pytest.approx(want[key], rel=RTOL, abs=ATOL), key
    # the imposed -1/r tail is exact by construction; a loose bound guards
    # against the boundary condition silently not being applied at all
    assert got["boundary_coulomb_residual"] < 1e-8


def _bands_chain_scf(**options):
    """The periodic H chain's SCF at Gamma and X: ``(calc, result)``;
    ``options`` override its ``SCFOptions``."""
    lat = np.diag([4.0, 10.0, 10.0])
    chain = AtomicConfiguration(
        ["H"], [[2.0, 5.0, 5.0]], lattice=lat, pbc=(True, False, False)
    )
    calc = DFTCalculation(
        chain, xc=LDA(), padding=5.0, cells_per_axis=(2, 3, 3), degree=3,
        kpoints=[((0.0, 0.0, 0.0), 0.5), ((0.5, 0.0, 0.0), 0.5)],
        options=SCFOptions(**{"max_iterations": 20, "temperature": 5e-3, **options}),
    )
    return calc, calc.run()


def _run_bands_chain() -> dict:
    calc, res = _bands_chain_scf()
    bands = band_structure(
        calc.mesh, res, kpath((0, 0, 0), (0.5, 0, 0), 3), nbands=4
    )
    return {
        "scf_free_energy": float(res.free_energy),
        "scf_eigenvalues": [np.asarray(ev).tolist() for ev in res.eigenvalues],
        "bands": bands.tolist(),
    }


def test_bands_golden(update_golden):
    """Non-self-consistent bands of a periodic H chain along Gamma -> X."""
    got = _run_bands_chain()
    fname = "bands_H_chain.json"
    if update_golden:
        _store(fname, got)
        return
    want = _load(fname)
    assert got["scf_free_energy"] == pytest.approx(
        want["scf_free_energy"], rel=RTOL, abs=ATOL
    )
    assert len(got["scf_eigenvalues"]) == len(want["scf_eigenvalues"])
    for ch_got, ch_want in zip(got["scf_eigenvalues"], want["scf_eigenvalues"]):
        np.testing.assert_allclose(ch_got, ch_want, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(got["bands"], want["bands"], rtol=RTOL, atol=ATOL)


def test_bands_chain_scf_skips_no_state():
    """Each channel's Ritz pairs are its final Hamiltonian's lowest states.

    With ``r`` the largest Ritz residual, every eigenvalue of the dense
    matrix below ``max(ritz) - r`` must be one the channel holds, so there
    are at most ``nstates`` of them: a start that leaves a symmetry sector
    empty (the X channel seeded from Gamma with no random block) converges
    past a missing state and fails here.  Every occupied state matches its
    dense eigenvalue.
    """
    _, res = _bands_chain_scf()
    for ch, occ in zip(res.channels, res.occupations):
        dense = np.linalg.eigvalsh(ch.op.matrix())
        r = np.linalg.norm(ch.op.apply(ch.psi) - ch.psi * ch.evals, axis=0)
        nstates = ch.evals.size
        assert np.count_nonzero(dense < ch.evals.max() - r.max()) <= nstates
        held = occ > 1e-6
        np.testing.assert_allclose(ch.evals[held], dense[:nstates][held], atol=1e-6)
