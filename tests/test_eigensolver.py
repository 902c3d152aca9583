"""ChFES pieces: Lanczos bounds, the degree cap, Chebyshev filter, CholGS,
Rayleigh-Ritz."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chebyshev import (
    capped_degree,
    chebyshev_filter,
    filter_block,
    lanczos_upper_bound,
)
from repro.core.subspace import (
    batched_gram,
    batched_rotate,
    cholesky_orthonormalize,
    rayleigh_ritz,
)
from repro.hpc.flops import FlopLedger

from tests.reference import reference_cf_term


class DenseOp:
    """Minimal operator wrapper over a dense Hermitian matrix."""

    def __init__(self, H):
        self.H = np.asarray(H)
        self.dtype = self.H.dtype
        self.n = H.shape[0]

    def apply(self, X, out=None, **term):
        Y = reference_cf_term(self.H @ X, X, **term)
        if out is None:
            return Y
        out[...] = Y
        return out


def _random_hermitian(n, seed=0, complex_=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if complex_:
        A = A + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


def test_lanczos_upper_bound_is_upper_bound():
    for seed in range(5):
        H = _random_hermitian(60, seed)
        op = DenseOp(H)
        b = lanczos_upper_bound(op, k=12, seed=seed)
        assert b >= np.linalg.eigvalsh(H)[-1] - 1e-8


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32])
@pytest.mark.parametrize("x0", [1.05, 1.11, 1.17, 2.08, 5.0, 60.0, 1e4])
@pytest.mark.parametrize("m_max", [1, 15, 40])
def test_capped_degree_is_the_largest_factorizable_degree(m_max, x0, dtype):
    """``T_m(|x0|) <= eps^-1/2 < T_{m+1}(|x0|)`` unless ``m`` is the cap."""
    a, b = 0.0, 2.0  # c = 1, e = 1: the lowest state sits at x = -x0
    m = capped_degree(m_max, a, b, 1.0 - x0, dtype)
    limit = np.finfo(dtype).eps ** -0.5

    def cheb(k):
        return np.cosh(k * np.arccosh(x0))

    assert 1 <= m <= m_max
    assert cheb(m) <= limit or m == 1
    if m < m_max:
        assert limit < cheb(m + 1)


def test_capped_degree_leaves_a_window_without_dynamic_range_alone():
    assert capped_degree(15, a=0.0, b=2.0, a0=0.5, dtype=np.float64) == 15


def test_filter_amplifies_wanted_spectrum():
    """After filtering, the subspace aligns with the lowest eigenvectors."""
    H = np.diag(np.linspace(0.0, 10.0, 100))
    op = DenseOp(H)
    rng = np.random.default_rng(1)
    X = np.linalg.qr(rng.standard_normal((100, 8)))[0]
    Y = filter_block(op, X, m=12, a=2.0, b=10.5, a0=0.0)
    # energy content below a should dominate
    low = np.linalg.norm(Y[:20], "fro")
    high = np.linalg.norm(Y[20:], "fro")
    assert low > 50 * high


def test_filter_degree_improves_subspace():
    H = _random_hermitian(80, 2)
    evals, evecs = np.linalg.eigh(H)
    op = DenseOp(H)
    rng = np.random.default_rng(3)
    X = np.linalg.qr(rng.standard_normal((80, 6)))[0]
    a, b = evals[10], evals[-1] + 0.1
    errs = []
    for m in (4, 10, 20):
        Y = chebyshev_filter(op, X, m, a, b, evals[0])
        Q = np.linalg.qr(Y)[0]
        # subspace error vs the exact lowest-6 eigenspace
        P = evecs[:, :6]
        errs.append(np.linalg.norm(Q @ (Q.T @ P) - P))
    assert errs[0] > errs[1] > errs[2]


def test_blocked_filter_matches_unblocked():
    H = _random_hermitian(50, 4)
    op = DenseOp(H)
    X = np.random.default_rng(5).standard_normal((50, 10))
    full = chebyshev_filter(op, X, 8, 1.0, 12.0, -1.0, block_size=None)
    blocked = chebyshev_filter(op, X, 8, 1.0, 12.0, -1.0, block_size=3)
    assert np.allclose(full, blocked, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), complex_=st.booleans())
def test_cholesky_orthonormalize_property(seed, complex_):
    """Property: output has identity overlap, spans the same space."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 8))
    if complex_:
        X = X + 1j * rng.standard_normal((40, 8))
    Y = cholesky_orthonormalize(X, block_size=3)
    S = Y.conj().T @ Y
    assert np.allclose(S, np.eye(8), atol=1e-10)
    # same span: projector equality
    Px = X @ np.linalg.pinv(X)
    Py = Y @ Y.conj().T
    assert np.allclose(Px, Py, atol=1e-8)


def test_blocked_gram_matches_direct():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 10)) + 1j * rng.standard_normal((60, 10))
    S = batched_gram(X, block_size=4)
    assert np.allclose(S, X.conj().T @ X, atol=1e-12)


def test_blocked_gram_mixed_precision_error_small():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((200, 16))
    S64 = batched_gram(X, block_size=4, mixed_precision=False)
    S32 = batched_gram(X, block_size=4, mixed_precision=True)
    # diagonal blocks identical (kept FP64)
    assert np.allclose(np.diag(S64), np.diag(S32), atol=0)
    rel = np.abs(S64 - S32).max() / np.abs(S64).max()
    assert 0 < rel < 1e-5  # fp32 off-diagonals: small but nonzero error


def test_blocked_rotate_matches_direct():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((30, 9))
    Q = rng.standard_normal((9, 9))
    assert np.allclose(batched_rotate(X, Q, block_size=4), X @ Q, atol=1e-12)


def test_rayleigh_ritz_recovers_eigenpairs():
    H = _random_hermitian(70, 11)
    evals_ref, evecs = np.linalg.eigh(H)
    op = DenseOp(H)
    X = evecs[:, :5] @ np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))[0]
    evals, Xr = rayleigh_ritz(op, X, block_size=2)
    assert np.allclose(evals, evals_ref[:5], atol=1e-10)
    for i in range(5):
        overlap = abs(np.dot(Xr[:, i], evecs[:, i]))
        assert overlap > 1.0 - 1e-10


def test_projected_hamiltonian_hermitian():
    """RR-P's gram ``X^H (H X)`` is Hermitian to round-off before the stage
    hermitizes it."""
    H = _random_hermitian(40, 12, complex_=True)
    op = DenseOp(H)
    rng = np.random.default_rng(2)
    X = np.linalg.qr(rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8)))[0]
    Hp = batched_gram(X, op.apply(X), block_size=3, kernel="RR-P")
    assert np.allclose(Hp, Hp.conj().T, atol=1e-12)


def test_ledger_records_kernel_flops():
    H = _random_hermitian(50, 13)
    op = DenseOp(H)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 10))
    ledger = FlopLedger()
    Y = cholesky_orthonormalize(X, block_size=5, mixed_precision=True, ledger=ledger)
    rayleigh_ritz(op, Y, block_size=5, mixed_precision=True, ledger=ledger)
    for k in ("CholGS-S", "CholGS-O", "RR-P", "RR-SR"):
        assert ledger[k].flops_total > 0, k
    assert ledger["CholGS-S"].flops_fp32 > 0  # mixed precision active
    assert ledger["RR-D"].seconds >= 0 and ledger["RR-D"].flops_total == 0
