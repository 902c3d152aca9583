"""Atom-centred Gaussians as three 1-D factors (``core/density.py``).

``gaussian_superposition`` builds the core charge of ``Electrostatics`` and
the superposition-of-atoms guess; its oracle is the per-image full-mesh loop
it replaced, ``tests.reference.reference_gaussian_superposition``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import auto_mesh
from repro.core.density import atomic_guess_density, gaussian_superposition
from repro.core.hamiltonian import Electrostatics
from repro.fem.mesh import uniform_mesh
from repro.materials.lattice import hcp_orthorhombic, supercell
from repro.pipeline import MOLECULE_LIBRARY
from tests.reference import reference_gaussian_superposition


def _graded_h2o():
    symbols, positions, *_ = MOLECULE_LIBRARY["H2O"]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    return auto_mesh(config, padding=6.0, cells_per_axis=3, degree=4)


def _periodic_mg():
    lattice, symbols, frac = hcp_orthorhombic()
    config = supercell(lattice, symbols, frac, (2, 1, 1))
    return auto_mesh(config, cells_per_axis=(4, 3, 3), degree=3)


def _sheared():
    """A monoclinic lattice on an orthorhombic mesh: ``auto_mesh`` refuses
    it, the Gaussians do not care — every image is just another centre."""
    lattice = np.array([[7.0, 0.0, 0.0], [2.1, 6.0, 0.0], [0.7, -1.3, 8.0]])
    config = AtomicConfiguration(
        ["Mg", "Li"], [[1.0, 2.0, 3.0], [4.5, 3.5, 6.0]],
        lattice=lattice, pbc=(True, True, False),
    )
    return uniform_mesh((7.0, 6.0, 8.0), (3, 2, 3), degree=3), config


@pytest.mark.parametrize("build", [_graded_h2o, _periodic_mg, _sheared])
@pytest.mark.parametrize("width", [0.5**0.5, 1.6])
def test_gaussian_superposition_matches_per_image_loop(build, width):
    mesh, config = build()
    assert len(config._image_shifts()) == 3 ** sum(config.pbc)
    sigma_of = lambda el: width * el.r_c
    got = gaussian_superposition(mesh, config, sigma_of)
    want = reference_gaussian_superposition(mesh, config, sigma_of)
    assert got.shape == (mesh.nnodes,)
    # the far tail on the field's scale: exp's relative error grows with its
    # argument, and the two sides round (dx^2 + dy^2 + dz^2) differently
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    big = want > 1e-6 * np.max(want)
    assert np.max(np.abs(got[big] - want[big]) / want[big]) <= 1e-14


@pytest.mark.parametrize("build", [_graded_h2o, _periodic_mg])
def test_core_density_and_guess_integrate_to_the_electron_count(build):
    mesh, config = build()
    n = config.n_electrons
    core = Electrostatics(mesh, config).core_density
    guess = atomic_guess_density(mesh, config, polarization=0.25)
    assert abs(mesh.integrate(core) - n) <= 1e-13 * n
    assert abs(mesh.integrate(guess.sum(axis=1)) - n) <= 1e-13 * n
    np.testing.assert_allclose(guess[:, 0] * 0.375, guess[:, 1] * 0.625, rtol=1e-15)


def test_gaussian_superposition_memory_is_per_atom_not_per_system():
    """Peak extra memory does not grow with the atom count: one atom's factor
    tables, its ``(images, n_y n_z)`` product and the GEMM's output, never an
    ``(atoms * images, n_y n_z)`` table (53 MB at Mg256)."""
    lengths = np.array([12.0, 21.0, 20.0])
    mesh = uniform_mesh(tuple(lengths), (3, 5, 5), degree=3, pbc=(True,) * 3)
    mesh._axis_nodes  # cached before the measurement

    def peak_bytes(natoms):
        positions = np.random.default_rng(natoms).uniform(0.0, 1.0, (natoms, 3))
        config = AtomicConfiguration(
            ["Mg"] * natoms, positions * lengths,
            lattice=np.diag(lengths), pbc=(True,) * 3,
        )
        tracemalloc.start()
        try:
            gaussian_superposition(mesh, config, lambda el: el.r_c)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak_bytes(4), peak_bytes(64)
    assert many <= 1.05 * few
    _, ny, nz = mesh.nnodes_axis
    assert many < 0.1 * (8 * 64 * 27 * ny * nz)
