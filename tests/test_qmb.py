"""QMB substrate: Slater-Condon FCI vs Jordan-Wigner, integrals, H2 pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qmb.fci import FCISolver, density_from_rdm
from repro.qmb.integrals import OrbitalIntegrals, compute_integrals
from repro.qmb.slater import (
    determinants,
    diagonal_element,
    excitation_sign,
    excite,
    occ_list,
)
from tests.reference import reference_eri
from tests.reference.fock import fock_space_ground_state


def _random_integrals(n, seed=0, e_core=0.0):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    pairs = [(p, q) for p in range(n) for q in range(p + 1)]
    A = 0.2 * rng.normal(size=(len(pairs), len(pairs)))
    A = 0.5 * (A + A.T)
    eri = np.zeros((n, n, n, n))
    for i, (p, q) in enumerate(pairs):
        for j, (r, s) in enumerate(pairs):
            v = A[i, j]
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    eri[a, b, c, d] = v
                    eri[c, d, a, b] = v
    return OrbitalIntegrals(h, eri, e_core=e_core)


# ----- determinant machinery -------------------------------------------------
def test_determinant_counts():
    assert len(determinants(6, 3)) == 20
    assert len(determinants(4, 0)) == 1
    with pytest.raises(ValueError):
        determinants(3, 4)


def test_occ_list_roundtrip():
    bits = 0b101101
    assert occ_list(bits) == [0, 2, 3, 5]


def test_excitation_sign_parity():
    # |110> : excite orbital 1 -> 3 passes over orbital 2 (occupied): sign -1
    bits = 0b110
    assert excitation_sign(bits, 1, 3) == -1
    # excite 2 -> 3: no occupied orbitals in between: sign +1
    assert excitation_sign(bits, 2, 3) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_excite_involution_and_sign_consistency(seed):
    """Property: (p->r) then (r->p) restores the determinant with sign +1."""
    rng = np.random.default_rng(seed)
    n = 8
    occ = rng.choice(n, size=4, replace=False)
    bits = 0
    for p in occ:
        bits |= 1 << int(p)
    virt = [r for r in range(n) if not (bits >> r) & 1]
    p = int(rng.choice(occ))
    r = int(rng.choice(virt))
    b1, s1 = excite(bits, p, r)
    b2, s2 = excite(b1, r, p)
    assert b2 == bits
    assert s1 * s2 == 1


# ----- FCI vs independent Fock-space diagonalization -------------------------
@pytest.mark.parametrize("na,nb", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_fci_matches_jordan_wigner(na, nb):
    ints = _random_integrals(4, seed=na * 10 + nb, e_core=0.3)
    e_fci = FCISolver(ints, na, nb).ground_state().energy
    e_jw = fock_space_ground_state(ints, na, nb)
    assert np.isclose(e_fci, e_jw, atol=1e-10)


def test_fci_one_electron_reduces_to_h_eigenvalue():
    """Single electron: FCI energy equals the lowest eigenvalue of h."""
    ints = _random_integrals(5, seed=3)
    ints.eri[:] = 0.0
    res = FCISolver(ints, 1, 0).ground_state()
    assert np.isclose(res.energy, np.linalg.eigvalsh(ints.h)[0], atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_rdm_properties(seed):
    """Property: 1-RDMs are symmetric, correct trace, occupations in [0,1]."""
    ints = _random_integrals(4, seed=seed)
    res = FCISolver(ints, 2, 1).ground_state()
    for g, ne in ((res.rdm1_alpha, 2), (res.rdm1_beta, 1)):
        assert np.allclose(g, g.T, atol=1e-12)
        assert np.isclose(np.trace(g), ne, atol=1e-10)
        occs = np.linalg.eigvalsh(g)
        assert np.all(occs > -1e-10) and np.all(occs < 1 + 1e-10)


def test_fci_variational_vs_single_determinant():
    ints = _random_integrals(5, seed=11, e_core=0.2)
    res = FCISolver(ints, 2, 2).ground_state()
    e_det0 = diagonal_element(0b11, 0b11, ints.h, ints.eri) + ints.e_core
    assert res.energy <= e_det0 + 1e-12


def test_fci_spin_symmetry():
    """(na, nb) and (nb, na) sectors are degenerate for real integrals."""
    ints = _random_integrals(4, seed=21)
    e1 = FCISolver(ints, 2, 1).ground_state().energy
    e2 = FCISolver(ints, 1, 2).ground_state().energy
    assert np.isclose(e1, e2, atol=1e-10)


# ----- integrals + end-to-end H2 ---------------------------------------------
@pytest.fixture(scope="module")
def h2_fci():
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation
    from repro.core.density import orbitals_to_nodes

    config = AtomicConfiguration(["H", "H"], [[0, 0, 0], [1.4, 0, 0]])
    calc = DFTCalculation(config, padding=8.0, cells_per_axis=4, degree=4, nstates=6)
    res = calc.run()
    phi = orbitals_to_nodes(calc.mesh, res.channels[0].psi)
    ints = compute_integrals(calc.mesh, calc.config, phi)
    fci = FCISolver(ints, 1, 1).ground_state()
    return calc, res, phi, ints, fci


def test_integral_symmetries(h2_fci):
    _, _, _, ints, _ = h2_fci
    eri = ints.eri
    assert np.allclose(ints.h, ints.h.T, atol=1e-10)
    assert np.allclose(eri, eri.transpose(1, 0, 2, 3), atol=1e-10)
    assert np.allclose(eri, eri.transpose(0, 1, 3, 2), atol=1e-10)
    assert np.allclose(eri, eri.transpose(2, 3, 0, 1), atol=1e-10)
    # Coulomb integrals are positive
    for p in range(ints.n_orb):
        assert eri[p, p, p, p] > 0


def test_eri_gemm_matches_the_per_pair_dot_loop(h2_fci):
    """One GEMM over the pair block and the symmetric fill give the tensor
    the n^4/8 loop of nodal dot products gave, to rounding."""
    calc, _, phi, ints, _ = h2_fci
    want = reference_eri(calc.mesh, phi)
    assert np.max(np.abs(ints.eri - want)) <= 1e-12 * np.max(np.abs(want))


def test_h2_fci_below_single_determinant(h2_fci):
    _, _, _, ints, fci = h2_fci
    e_det0 = diagonal_element(0b1, 0b1, ints.h, ints.eri) + ints.e_core
    assert fci.energy < e_det0 - 1e-4  # correlation lowers the energy


def test_h2_fci_density_integrates_to_two(h2_fci):
    calc, _, phi, _, fci = h2_fci
    rho = density_from_rdm(phi, fci.rdm1)
    assert np.isclose(float(calc.mesh.integrate(rho)), 2.0, atol=1e-9)
    assert np.all(rho > -1e-10)


def test_h2_fci_natural_occupations(h2_fci):
    """Ground-state sigma_g orbital dominates; weak correlation tail."""
    _, _, _, _, fci = h2_fci
    occs = np.sort(np.linalg.eigvalsh(fci.rdm1))[::-1]
    assert occs[0] > 1.9  # dominant natural orbital
    assert occs[1] < 0.1
    assert np.isclose(occs.sum(), 2.0, atol=1e-9)


def test_nonorthonormal_orbitals_rejected():
    from repro.fem.mesh import uniform_mesh
    from repro.atoms.pseudo import AtomicConfiguration

    mesh = uniform_mesh((6.0, 6.0, 6.0), (2, 2, 2), degree=3)
    config = AtomicConfiguration(["H"], [[3.0, 3.0, 3.0]])
    bad = np.random.default_rng(0).normal(size=(mesh.nnodes, 2))
    with pytest.raises(ValueError):
        compute_integrals(mesh, config, bad)
