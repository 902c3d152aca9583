"""Ablation: blocked vs unblocked CholGS / Rayleigh-Ritz kernels.

The paper processes wavefunctions in column blocks both to bound memory and
to enable compute/communication overlap; numerically the blocked kernels
must be exact.  Benchmarked on production-shaped (tall skinny) matrices.
"""

import numpy as np
import pytest

from repro.core.subspace import batched_gram, cholesky_orthonormalize


@pytest.fixture(scope="module")
def tall_matrix(rng):
    return rng.standard_normal((30000, 128))


@pytest.mark.parametrize("block", [128, 32, 8], ids=["unblocked", "b32", "b8"])
def test_gram_block_size(benchmark, tall_matrix, block):
    S = benchmark(batched_gram, tall_matrix, block_size=block)
    assert S.shape == (128, 128)


@pytest.mark.parametrize("block", [128, 32], ids=["unblocked", "b32"])
def test_cholgs_block_size(benchmark, tall_matrix, block):
    Y = benchmark(cholesky_orthonormalize, tall_matrix, block)
    S = Y.T @ Y
    assert np.allclose(S, np.eye(128), atol=1e-8)


def test_blocked_equals_unblocked(tall_matrix, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a = cholesky_orthonormalize(tall_matrix, block_size=128)
    b = cholesky_orthonormalize(tall_matrix, block_size=16)
    assert np.allclose(a, b, atol=1e-10)


def test_projected_hamiltonian_blocked(benchmark, tall_matrix):
    X = np.linalg.qr(tall_matrix[:, :64])[0]
    # a symmetric H (periodic nearest-neighbour coupling): the blocked
    # projection computes the upper block triangle and mirrors it
    HX = 2.0 * X + 0.1 * (np.roll(X, 1, axis=0) + np.roll(X, -1, axis=0))
    Hp = benchmark(batched_gram, X, HX, 16, kernel="RR-P")
    assert np.allclose(Hp, X.T @ HX, atol=1e-12)
