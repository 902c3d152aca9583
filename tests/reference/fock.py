"""Independent Fock-space exact diagonalization (Jordan-Wigner).

A deliberately different implementation of the same many-body problem, used
to cross-validate the Slater-Condon FCI solver in the test suite: creation
and annihilation operators are built as explicit Kronecker-product matrices
over the full 2^(2 n_orb) Fock space (spin-orbital ordering: all alpha,
then all beta), the Hamiltonian is assembled from the integrals

    H = sum_pq h_pq a_p^dag a_q
      + 1/2 sum (pq|rs) a_p^dag a_r^dag a_s a_q   (chemists' notation)

and diagonalized in the fixed-(N_alpha, N_beta) sector.  Exponential memory
limits this to ~5 spatial orbitals — exactly its purpose.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.qmb.integrals import OrbitalIntegrals

__all__ = ["fock_space_ground_state", "creation_operator"]


def creation_operator(mode: int, n_modes: int) -> sp.csr_matrix:
    """Jordan-Wigner a_mode^dagger on the 2^n_modes Fock space."""
    create = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    sign_z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    eye = sp.identity(2, format="csr")
    op = sp.identity(1, format="csr")
    for m in range(n_modes):
        if m < mode:
            blk = sign_z
        elif m == mode:
            blk = create
        else:
            blk = eye
        op = sp.kron(op, blk, format="csr")
    return op


def fock_space_ground_state(
    integrals: OrbitalIntegrals, n_alpha: int, n_beta: int
) -> float:
    """Ground-state total energy in the (n_alpha, n_beta) particle sector."""
    n_orb = integrals.n_orb
    n_modes = 2 * n_orb
    if n_modes > 12:
        raise MemoryError("Fock-space verification limited to <= 6 spatial orbitals")
    a_dag = [creation_operator(m, n_modes) for m in range(n_modes)]
    a = [op.T.tocsr() for op in a_dag]

    def so(p: int, spin: int) -> int:  # spin-orbital index
        return p + spin * n_orb

    dim = 2**n_modes
    H = sp.csr_matrix((dim, dim))
    h, eri = integrals.h, integrals.eri
    for s in (0, 1):
        for p in range(n_orb):
            for q in range(n_orb):
                if abs(h[p, q]) > 1e-14:
                    H = H + h[p, q] * (a_dag[so(p, s)] @ a[so(q, s)])
    for s1 in (0, 1):
        for s2 in (0, 1):
            for p in range(n_orb):
                for q in range(n_orb):
                    for r in range(n_orb):
                        for t in range(n_orb):
                            v = eri[p, q, r, t]
                            if abs(v) < 1e-14:
                                continue
                            H = H + 0.5 * v * (
                                a_dag[so(p, s1)]
                                @ a_dag[so(r, s2)]
                                @ a[so(t, s2)]
                                @ a[so(q, s1)]
                            )

    # restrict to the particle-number sector
    occ_counts_a = np.zeros(dim, dtype=int)
    occ_counts_b = np.zeros(dim, dtype=int)
    for state in range(dim):
        # kron ordering: mode 0 is the most significant bit
        for m in range(n_modes):
            if (state >> (n_modes - 1 - m)) & 1:
                if m < n_orb:
                    occ_counts_a[state] += 1
                else:
                    occ_counts_b[state] += 1
    sector = np.nonzero((occ_counts_a == n_alpha) & (occ_counts_b == n_beta))[0]
    Hs = H[np.ix_(sector, sector)].toarray()
    evals = np.linalg.eigvalsh(Hs)
    return float(evals[0]) + integrals.e_core
