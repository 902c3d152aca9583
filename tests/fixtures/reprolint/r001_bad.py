"""R001 fixture: reduced precision outside the mixed-precision kernels."""

import numpy as np

SCRATCH = np.empty((8,), dtype=np.float32)  # expect: R001


def gram_offdiag(xi, xj):
    a = xi.astype(np.float32)  # expect: R001
    b = xj.astype(np.float32)  # expect: R001
    return a.T @ b


def halo_pack(buf):
    f32 = np.float32
    return buf.astype(f32)  # expect: R001


def string_spelling(x):
    return x.astype("complex64")  # expect: R001


def via_dtype_var(x):
    pdt = np.dtype("float32")
    y = x.astype(pdt)  # expect: R001
    return y


def cache_scratch(obj, x):
    tmp = np.zeros((4, 4), dtype="float32")  # expect: R001
    tmp[0, 0] = float(x)
    obj.scratch = tmp


def leaks_helper(x):
    m = fp32_mirror_of(x)  # expect: R001
    return m


def round_trip(x):
    # the upcast is a separate statement, not the same expression
    y = x.astype(np.float32)  # expect: R001
    return y.astype(x.dtype)


def confined_store(x, out):
    x32 = x.astype(np.float32)  # expect: R001
    out[...] = x32
    return out


def fp32_mirror_local(x):
    # a function name no longer whitelists its body
    return x.astype(np.float32)  # expect: R001


def single_element(x):
    return x.astype(np.float32)  # expect: R001


def round_trip_is_confined(x):
    # cast straight back up in the same expression: no finding
    return x.astype(np.float32).astype(x.dtype)
