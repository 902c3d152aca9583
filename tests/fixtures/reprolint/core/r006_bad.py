"""R006 fixture (path-scoped under core/): implicit-dtype allocations."""

import numpy as np


def accumulate(n):
    acc = np.zeros(n)  # expect: R006
    return acc


def workspace(shape):
    return np.empty(shape)  # expect: R006


def aliased_allocator(n):
    alloc = np.zeros
    return alloc(n)  # expect: R006


def none_dtype(n):
    return np.empty(n, dtype=None)  # expect: R006


def none_dtype_variable(n, complex_):
    dt = None
    if complex_:
        dt = np.complex128
    return np.zeros(n, dtype=dt)  # expect: R006
