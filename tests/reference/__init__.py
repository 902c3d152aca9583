"""Test oracles: the textbook twins of the production kernels.

``src/repro`` runs exactly one implementation of each operation — the
batched subspace engine (:mod:`repro.core.subspace`), the CSR scatter
(:mod:`repro.fem.scatter`) and the pooled Chebyshev recurrence
(:func:`repro.core.chebyshev.filter_block`).  The per-block loops, the
``np.add.at`` scatter and the allocating recurrence they replaced live on
here, unchanged down to the per-block FP32 casts, as the references the
bitwise tests (and the A/B benchmark scripts) compare the production path
against.  So does the cell-local stiffness product in its dense form — three
``npc x npc`` Kronecker GEMMs with per-cell scalar coefficients
(:func:`reference_apply_cells`), the form ``CellStiffness.apply_cells``
factorises.  The atom-centred Gaussians are summed here one periodic image
at a time over the full ``(nnodes, 3)`` coordinate table
(:func:`reference_gaussian_superposition`), the loop
``repro.core.density.gaussian_superposition`` factorises per axis.  The
complex-step oracle for LDA's closed-form potential needs no code: it is the
base class's own ``XCFunctional._energy_and_derivatives(LDA(), args)``.
``XCFunctional.evaluate`` runs that derivative step on the live rows only;
:func:`reference_evaluate_then_mask` runs it on every row and masks after,
as ``evaluate`` did before the gather.  The
complex-step oracles for the back-propagated neural
functionals and their trainer are in :mod:`tests.reference.mlxc`, the
fixed-block unpreconditioned MINRES the adjoint solver is checked against in
:mod:`tests.reference.minres`, and the Jordan–Wigner Fock-space
diagonaliser the Slater–Condon FCI solver is checked against in
:mod:`tests.reference.fock`.  The electron-repulsion tensor is contracted
here one ``(pq|rs)`` nodal dot product at a time (:func:`reference_eri`), the
n⁴/8 loop ``repro.qmb.integrals.compute_integrals`` does as one GEMM.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro.constants import RHO_FLOOR
from repro.fem.poisson import PoissonSolver, multipole_boundary_values
from repro.hpc.flops import gemm_flops
from repro.obs import kernel_region
from repro.precision import f32_dtype
from repro.xc.base import XCOutput

__all__ = [
    "reference_apply_cells",
    "reference_cf_term",
    "reference_cholgs",
    "reference_eri",
    "reference_evaluate_then_mask",
    "reference_filter_block",
    "reference_gaussian_superposition",
    "reference_gram",
    "reference_projected_hamiltonian",
    "reference_rayleigh_ritz",
    "reference_rotate",
    "reference_scatter_add",
]


def reference_evaluate_then_mask(functional, *args) -> XCOutput:
    """The functional's derivative step on *every* row, then ``live = rho >
    RHO_FLOOR`` applied to what it returned: oracle for the live-row gather
    of ``XCFunctional.evaluate``.  ``args`` are the 2 / 5 pointwise
    inputs (densities, contractions), all of them given."""
    rho_up = np.maximum(np.asarray(args[0], dtype=float), 0.0)
    rho_dn = np.maximum(np.asarray(args[1], dtype=float), 0.0)
    inputs = [rho_up, rho_dn] + [np.asarray(a, float) for a in args[2:]]
    exc, derivs = functional._energy_and_derivatives(inputs)
    live = (rho_up + rho_dn) > RHO_FLOOR
    derivs = [np.where(live, d, 0.0) for d in derivs]
    vrho = np.stack(derivs[:2], axis=-1)
    vsigma = np.stack(derivs[2:5], axis=-1) if functional.needs_gradient else None
    return XCOutput(np.where(live, exc, 0.0), vrho, vsigma)


def reference_eri(mesh, phi: np.ndarray, poisson_tol: float = 1e-10) -> np.ndarray:
    """``(pq|rs)`` for nodal orbitals ``phi`` (nnodes, n): one Poisson solve
    per pair ``p >= q``, then one ``w . (v_pq phi_r phi_s)`` dot per pair of
    pairs ``(p, q) >= (r, s)``, written to its eight symmetric slots."""
    n_orb, w = phi.shape[1], mesh.mass_diag
    solver = PoissonSolver(mesh)
    eri = np.zeros((n_orb,) * 4)
    pair_pot = {}
    for p in range(n_orb):
        for q in range(p + 1):
            rho_pq = phi[:, p] * phi[:, q]
            bc = multipole_boundary_values(mesh, rho_pq)
            pair_pot[(p, q)] = solver.solve(
                rho_pq, boundary_values=bc, tol=poisson_tol
            ).potential
    for (p, q), v in pair_pot.items():
        for r in range(n_orb):
            for s in range(r + 1):
                if (p, q) < (r, s):
                    continue
                val = float(np.dot(w, v * phi[:, r] * phi[:, s]))
                for a, b in ((p, q), (q, p)):
                    for c, d in ((r, s), (s, r)):
                        eri[a, b, c, d] = val
                        eri[c, d, a, b] = val
    return eri


def reference_scatter_add(
    indices: np.ndarray, values: np.ndarray, nnodes: int
) -> np.ndarray:
    """``out[indices[r]] += values[r]`` by ``np.add.at`` into a fresh zeroed
    ``(nnodes, B)`` array: oracle for ``ScatterMap.add_to``."""
    flat = np.asarray(indices).ravel()
    vals = np.asarray(values).reshape(flat.size, -1)
    out = np.zeros((nnodes, vals.shape[1]), dtype=vals.dtype)
    np.add.at(out, flat, vals)
    return out


def reference_gaussian_superposition(mesh, config, sigma_of) -> np.ndarray:
    """One full-mesh ``norm * exp(-|r - R - s|^2 / 2 sigma^2)`` per atom and
    periodic image: oracle for ``gaussian_superposition``."""
    rho = np.zeros(mesh.nnodes, dtype=float)
    shifts = config._image_shifts()
    for el, pos in zip(config.elements, config.positions):
        sigma = sigma_of(el)
        norm = el.valence / (2.0 * np.pi * sigma**2) ** 1.5
        for s in shifts:
            d = mesh.node_coords - (pos + s)
            r2 = np.einsum("ij,ij->i", d, d)
            rho += norm * np.exp(-r2 / (2.0 * sigma**2))
    return rho


def reference_apply_cells(
    stiff, Xc: np.ndarray, cells: np.ndarray | None = None
) -> np.ndarray:
    """``Y_c = (c1 k(x)W(x)W + c2 W(x)k(x)W + c3 W(x)W(x)k) X_c`` by three dense
    batched GEMMs and the per-cell coefficient scale — on every mesh, in the
    block's own dtype: oracle for ``CellStiffness.apply_cells``."""
    mesh = stiff.mesh
    khat, dw = mesh.ref.stiff1d, np.diag(mesh.ref.weights1d)
    A = [
        np.kron(np.kron(a, b), c)
        for a, b, c in ((khat, dw, dw), (dw, khat, dw), (dw, dw, khat))
    ]
    h = mesh.cell_sizes if cells is None else mesh.cell_sizes[cells]
    coef = np.stack(
        [
            h[:, 1] * h[:, 2] / (2.0 * h[:, 0]),
            h[:, 0] * h[:, 2] / (2.0 * h[:, 1]),
            h[:, 0] * h[:, 1] / (2.0 * h[:, 2]),
        ],
        axis=1,
    )
    Yc = coef[:, 0, None, None] * np.matmul(A[0], Xc)
    Yc += coef[:, 1, None, None] * np.matmul(A[1], Xc)
    Yc += coef[:, 2, None, None] * np.matmul(A[2], Xc)
    return Yc


def reference_cf_term(
    HY: np.ndarray, Y: np.ndarray, scale: float = 1.0, shift: float = 0.0,
    minus: tuple[float, np.ndarray] | None = None,
) -> np.ndarray:
    """``scale * (H - shift) Y - beta * X_prev`` from a plain ``HY = H Y`` by
    allocating passes over the block, ``minus = (beta, X_prev)``: oracle for
    the fused ``op.apply(Y, scale=, shift=, minus=)``, and the way a test's
    own dense operator honours those keywords."""
    out = (HY - shift * Y) * scale
    return out if minus is None else out - minus[0] * minus[1]


def reference_filter_block(
    op, X: np.ndarray, m: int, a: float, b: float, a0: float,
    hx0: np.ndarray | None = None,
) -> np.ndarray:
    """Allocating three-term Chebyshev recurrence (plain ``op.apply(X)``, a
    fresh block per term): oracle for ``filter_block`` on every schedule."""
    e = (b - a) / 2.0
    c = (b + a) / 2.0
    sigma = e / (a0 - c)
    sigma1 = sigma
    HX = op.apply(X) if hx0 is None else hx0
    Y = reference_cf_term(HX, X, sigma1 / e, c)
    for _ in range(2, m + 1):
        sigma2 = 1.0 / (2.0 / sigma1 - sigma)
        Ynew = reference_cf_term(
            op.apply(Y), Y, 2.0 * sigma2 / e, c, (sigma * sigma2, X)
        )
        X, Y = Y, Ynew
        sigma = sigma2
    return Y


def reference_gram(
    X: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
    kernel: str = "CholGS-S",
) -> np.ndarray:
    """Per-(i, j)-block overlap loop: oracle for ``batched_gram``."""
    n, nvec = X.shape
    is_complex = np.issubdtype(X.dtype, np.complexfloating)
    S = np.zeros((nvec, nvec), dtype=X.dtype)
    f32 = f32_dtype(X.dtype)
    starts = list(range(0, nvec, block_size))
    with kernel_region(kernel, ledger, block_size=block_size, nvec=nvec):
        for i in starts:
            si = slice(i, min(i + block_size, nvec))
            Xi = X[:, si]
            for j in starts:
                if j < i:
                    continue
                sj = slice(j, min(j + block_size, nvec))
                Xj = X[:, sj]
                offdiag = j > i
                if mixed_precision and offdiag:
                    # CholGS-S whitelisted downcast: off-diagonal overlap
                    # blocks decay to 0 as the filtered subspace converges,
                    # so their FP32 rounding is bounded by the block norm
                    # (paper Sec 5.4.1); tests bound the orthonormality loss.
                    blk = (Xi.astype(f32).conj().T @ Xj.astype(f32)).astype(X.dtype)
                    prec = "fp32"
                else:
                    blk = Xi.conj().T @ Xj
                    prec = "fp64"
                S[si, sj] = blk
                if offdiag:
                    S[sj, si] = blk.conj().T
                if ledger is not None:
                    ledger.add(
                        kernel,
                        gemm_flops(
                            si.stop - si.start, sj.stop - sj.start, n, is_complex
                        ),
                        precision=prec,
                    )
    return S


def reference_rotate(
    X: np.ndarray,
    Q: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
    kernel: str = "RR-SR",
) -> np.ndarray:
    """Rotation loop with zeroed accumulators: oracle for ``batched_rotate``."""
    n, nvec = X.shape
    is_complex = np.issubdtype(X.dtype, np.complexfloating)
    f32 = f32_dtype(X.dtype)
    Y = np.zeros((n, Q.shape[1]), dtype=X.dtype)
    starts = list(range(0, nvec, block_size))
    col_starts = list(range(0, Q.shape[1], block_size))
    with kernel_region(kernel, ledger, block_size=block_size, nvec=nvec):
        for j in col_starts:
            sj = slice(j, min(j + block_size, Q.shape[1]))
            acc = np.zeros((n, sj.stop - sj.start), dtype=X.dtype)
            for i in starts:
                si = slice(i, min(i + block_size, nvec))
                offdiag = i != j
                if mixed_precision and offdiag:
                    # CholGS-O/RR-SR whitelisted downcast: off-diagonal
                    # rotation blocks mix well-separated subspace directions
                    # and shrink as the SCF converges; the FP64 accumulator
                    # keeps the summation error at the FP64 level.
                    blk32 = X[:, si].astype(f32) @ Q[si, sj].astype(f32)
                    acc += blk32.astype(X.dtype)
                    prec = "fp32"
                else:
                    acc += X[:, si] @ Q[si, sj]
                    prec = "fp64"
                if ledger is not None:
                    ledger.add(
                        kernel,
                        gemm_flops(n, sj.stop - sj.start, si.stop - si.start, is_complex),
                        precision=prec,
                    )
            Y[:, sj] = acc
    return Y


def reference_projected_hamiltonian(
    X: np.ndarray,
    HX: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> np.ndarray:
    """Per-(i, j)-block projection loop: oracle for RR-P, the hermitized
    ``batched_gram(X, HX)``."""
    n, nvec = X.shape
    is_complex = np.issubdtype(X.dtype, np.complexfloating)
    f32 = f32_dtype(X.dtype)
    Hp = np.zeros((nvec, nvec), dtype=X.dtype)
    starts = list(range(0, nvec, block_size))
    with kernel_region("RR-P", ledger, block_size=block_size, nvec=nvec):
        for i in starts:
            si = slice(i, min(i + block_size, nvec))
            for j in starts:
                if j < i:
                    continue
                sj = slice(j, min(j + block_size, nvec))
                offdiag = j > i
                if mixed_precision and offdiag:
                    # RR-P whitelisted downcast: off-diagonal projected-
                    # Hamiltonian blocks vanish as the subspace converges to
                    # an invariant one, bounding the FP32 error by the
                    # residual norm (paper Sec 5.4.1).
                    blk32 = X[:, si].astype(f32).conj().T @ HX[:, sj].astype(f32)
                    blk = blk32.astype(X.dtype)
                    prec = "fp32"
                else:
                    blk = X[:, si].conj().T @ HX[:, sj]
                    prec = "fp64"
                Hp[si, sj] = blk
                if offdiag:
                    Hp[sj, si] = blk.conj().T
                if ledger is not None:
                    ledger.add(
                        "RR-P",
                        gemm_flops(si.stop - si.start, sj.stop - sj.start, n, is_complex),
                        precision=prec,
                    )
    # Hermitize the diagonal blocks (round-off) for a clean eigh input.
    Hp = 0.5 * (Hp + Hp.conj().T)
    return Hp


def reference_cholgs(
    X: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> np.ndarray:
    """Unfused CholGS on the oracle loops (no QR rescue): ``X L^{-H}``."""
    kw = dict(block_size=block_size, mixed_precision=mixed_precision, ledger=ledger)
    L = np.linalg.cholesky(reference_gram(X, **kw))
    Linv = solve_triangular(L, np.eye(L.shape[0], dtype=L.dtype), lower=True)
    return reference_rotate(X, Linv.conj().T, kernel="CholGS-O", **kw)


def reference_rayleigh_ritz(
    op,
    X: np.ndarray,
    block_size: int = 128,
    mixed_precision: bool = False,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Standalone Rayleigh-Ritz on the oracle loops, issuing its own apply."""
    kw = dict(block_size=block_size, mixed_precision=mixed_precision, ledger=ledger)
    Hp = reference_projected_hamiltonian(X, op.apply(X), **kw)
    evals, Q = np.linalg.eigh(Hp)
    return evals, reference_rotate(X, Q, **kw)
