"""R012 fixture (path-scoped under core/): per-iteration astype casts."""

import numpy as np

F32 = np.dtype("float64")


def per_block_cast(X, starts):
    total = 0.0
    for i in starts:
        total += float(X[:, i].astype(F32).sum())  # expect: R012
    return total


def cast_until_converged(X, tol):
    err = 1.0
    while err > tol:
        Y = X.astype(F32)  # expect: R012
        err = float(np.abs(Y).max())
    return err


def cast_each_product(X, blocks):
    total = 0.0
    for B in blocks:
        blk = X.T @ B
        total += float(blk.astype(F32).sum())  # expect: R012
    return total
