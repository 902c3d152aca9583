"""Full configuration interaction — the exact QMB reference of the pipeline.

Builds the sparse FCI Hamiltonian over (alpha, beta) bitstring determinant
pairs with the Slater-Condon rules, finds the ground state with a sparse
Lanczos (scipy ``eigsh``), and extracts the spin-resolved one-particle
reduced density matrices that the inverse-DFT module needs (the paper's
``rho_QMB``).

For the model systems of this reproduction (soft-pseudopotential analogs of
the paper's H2/LiH/Li/N/Ne training set), FCI in a 6-12 orbital Kohn-Sham
basis is the exact solution of the model-world many-electron problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .integrals import OrbitalIntegrals
from .slater import (
    determinants,
    diagonal_element,
    double_opposite_spin_element,
    double_same_spin_element,
    excite,
    occ_list,
    single_element,
)

__all__ = ["FCIResult", "FCISolver"]


@dataclass
class FCIResult:
    """FCI ground state: energy, CI vector, and 1-RDMs."""

    energy: float  #: total energy incl. nuclear repulsion (Ha)
    electronic_energy: float
    civector: np.ndarray
    rdm1_alpha: np.ndarray
    rdm1_beta: np.ndarray

    @property
    def rdm1(self) -> np.ndarray:
        return self.rdm1_alpha + self.rdm1_beta


class FCISolver:
    """Exact diagonalization in the full determinant space."""

    def __init__(self, integrals: OrbitalIntegrals, n_alpha: int, n_beta: int):
        self.ints = integrals
        self.n_orb = integrals.n_orb
        self.n_alpha = int(n_alpha)
        self.n_beta = int(n_beta)
        self.dets_a = determinants(self.n_orb, self.n_alpha)
        self.dets_b = determinants(self.n_orb, self.n_beta)
        self.index_a = {d: i for i, d in enumerate(self.dets_a)}
        self.index_b = {d: i for i, d in enumerate(self.dets_b)}
        self.n_dets = len(self.dets_a) * len(self.dets_b)

    # ------------------------------------------------------------------
    def _single_excitations(self, dets, index):
        """For each det: list of (j, p, r, sign) single excitations."""
        out = []
        for bits in dets:
            occ = occ_list(bits)
            virt = [r for r in range(self.n_orb) if not (bits >> r) & 1]
            conns = []
            for p in occ:
                for r in virt:
                    new, sign = excite(bits, p, r)
                    conns.append((index[new], p, r, sign))
            out.append(conns)
        return out

    def build_hamiltonian(self) -> sp.csr_matrix:
        """Assemble the sparse FCI Hamiltonian (electronic part only)."""
        h, eri = self.ints.h, self.ints.eri
        na, nb = len(self.dets_a), len(self.dets_b)
        singles_a = self._single_excitations(self.dets_a, self.index_a)
        singles_b = self._single_excitations(self.dets_b, self.index_b)
        rows, cols, vals = [], [], []

        def add(i, j, v):
            if abs(v) > 1e-14:
                rows.append(i)
                cols.append(j)
                vals.append(v)

        for ia, abits in enumerate(self.dets_a):
            occ_a = occ_list(abits)
            for ib, bbits in enumerate(self.dets_b):
                I = ia * nb + ib
                occ_b = occ_list(bbits)
                # diagonal
                add(I, I, diagonal_element(abits, bbits, h, eri))
                # alpha singles
                for ja, p, r, sgn in singles_a[ia]:
                    if ja * nb + ib > I:
                        v = sgn * single_element(abits, occ_b, p, r, h, eri)
                        add(I, ja * nb + ib, v)
                # beta singles
                for jb, p, r, sgn in singles_b[ib]:
                    if ia * nb + jb > I:
                        v = sgn * single_element(bbits, occ_a, p, r, h, eri)
                        add(I, ia * nb + jb, v)
                # alpha doubles
                for pi, p in enumerate(occ_a):
                    for q in occ_a[pi + 1 :]:
                        virt = [
                            r for r in range(self.n_orb) if not (abits >> r) & 1
                        ]
                        for ri, r in enumerate(virt):
                            for s in virt[ri + 1 :]:
                                b1, s1 = excite(abits, p, r)
                                b2, s2 = excite(b1, q, s)
                                J = self.index_a[b2] * nb + ib
                                if J > I:
                                    add(
                                        I, J,
                                        s1 * s2 * double_same_spin_element(p, q, r, s, eri),
                                    )
                # beta doubles
                for pi, p in enumerate(occ_b):
                    for q in occ_b[pi + 1 :]:
                        virt = [
                            r for r in range(self.n_orb) if not (bbits >> r) & 1
                        ]
                        for ri, r in enumerate(virt):
                            for s in virt[ri + 1 :]:
                                b1, s1 = excite(bbits, p, r)
                                b2, s2 = excite(b1, q, s)
                                J = ia * nb + self.index_b[b2]
                                if J > I:
                                    add(
                                        I, J,
                                        s1 * s2 * double_same_spin_element(p, q, r, s, eri),
                                    )
                # mixed alpha x beta singles
                for ja, p, r, sa in singles_a[ia]:
                    for jb, q, s, sb in singles_b[ib]:
                        J = ja * nb + jb
                        if J > I:
                            add(
                                I, J,
                                sa * sb * double_opposite_spin_element(p, r, q, s, eri),
                            )
        H = sp.coo_matrix(
            (vals, (rows, cols)), shape=(self.n_dets, self.n_dets)
        ).tocsr()
        upper = sp.triu(H, k=1)
        return H + upper.T

    # ------------------------------------------------------------------
    def ground_state(self) -> FCIResult:
        """Solve for the ground state and build the 1-RDMs."""
        H = self.build_hamiltonian()
        if self.n_dets == 1:
            e_elec = float(H[0, 0])
            c = np.ones(1)
        elif self.n_dets < 300:
            w, v = np.linalg.eigh(H.toarray())
            e_elec, c = float(w[0]), v[:, 0]
        else:
            # only determinant spaces too large for dense eigh need ARPACK
            from scipy.sparse.linalg import eigsh

            w, v = eigsh(H, k=1, which="SA")
            e_elec, c = float(w[0]), v[:, 0]
        ga, gb = self._one_rdm(c)
        return FCIResult(
            energy=e_elec + self.ints.e_core,
            electronic_energy=e_elec,
            civector=c,
            rdm1_alpha=ga,
            rdm1_beta=gb,
        )

    def _one_rdm(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spin-resolved 1-RDMs gamma_pq = <a_p^dag a_q> (symmetric, real)."""
        na, nb = len(self.dets_a), len(self.dets_b)
        C = c.reshape(na, nb)
        ga = np.zeros((self.n_orb, self.n_orb))
        gb = np.zeros((self.n_orb, self.n_orb))
        # diagonal occupation numbers
        for ia, abits in enumerate(self.dets_a):
            wrow = float(np.dot(C[ia], C[ia]))
            for p in occ_list(abits):
                ga[p, p] += wrow
        for ib, bbits in enumerate(self.dets_b):
            wcol = float(np.dot(C[:, ib], C[:, ib]))
            for p in occ_list(bbits):
                gb[p, p] += wcol
        # off-diagonal: single excitations
        for ia, abits in enumerate(self.dets_a):
            occ = occ_list(abits)
            virt = [r for r in range(self.n_orb) if not (abits >> r) & 1]
            for p in occ:
                for r in virt:
                    new, sign = excite(abits, p, r)
                    ja = self.index_a[new]
                    val = sign * float(np.dot(C[ia], C[ja]))
                    ga[p, r] += val
        for ib, bbits in enumerate(self.dets_b):
            occ = occ_list(bbits)
            virt = [r for r in range(self.n_orb) if not (bbits >> r) & 1]
            for p in occ:
                for r in virt:
                    new, sign = excite(bbits, p, r)
                    jb = self.index_b[new]
                    val = sign * float(np.dot(C[:, ib], C[:, jb]))
                    gb[p, r] += val
        ga = 0.5 * (ga + ga.T)
        gb = 0.5 * (gb + gb.T)
        return ga, gb


def density_from_rdm(orbitals_nodes: np.ndarray, rdm1: np.ndarray) -> np.ndarray:
    """Real-space density rho(r) = sum_pq gamma_pq phi_p(r) phi_q(r)."""
    phi = np.asarray(orbitals_nodes)
    return np.einsum("ip,pq,iq->i", phi, rdm1, phi, optimize=True)
