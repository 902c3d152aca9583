"""R006 fixture (path-scoped under core/): explicit dtypes."""

import numpy as np


def accumulate(n, dtype):
    return np.zeros(n, dtype=dtype)


def positional_dtype(n):
    return np.zeros(n, np.complex128)


def like_inherits(x):
    return np.zeros_like(x)


def resolved_dtype(n, a, b):
    dt = np.result_type(a, b)
    return np.zeros(n, dtype=dt)
