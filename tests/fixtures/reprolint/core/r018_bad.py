"""R018 fixture (path-scoped under core/): hard-coded block_size literals."""

from repro.core.orthonorm import cholesky_orthonormalize
from repro.core.rayleigh_ritz import rayleigh_ritz


def hard_wired_cholgs(X):
    return cholesky_orthonormalize(X, block_size=64)  # expect: R018


def hard_wired_subspace(op, X):
    return rayleigh_ritz(op, X, block_size=32)  # expect: R018
