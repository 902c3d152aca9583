"""Fast matrix-free apply path: scatter maps, workspaces, rank engines.

The contract under test is *bit-for-bit* equivalence wherever two paths run
the same arithmetic: the precomputed :class:`~repro.fem.scatter.ScatterMap`,
the pooled and the unpooled workspace and the rank engines' recurrence
must reproduce the reference ``np.add.at`` / allocate-per-call
implementations exactly.  The
in-process Chebyshev term is fused into the axis kernel's GEMMs — other
roundings than the allocating oracle's passes — and is held to it at
``TERM_RTOL`` of the block's largest entry.
"""

import numpy as np
import pytest

from repro.core.chebyshev import chebyshev_filter, filter_block
from repro.fem.assembly import KSOperator
from repro.fem.mesh import uniform_mesh
from repro.fem.scatter import ScatterMap
from repro.fem.workspace import Workspace

from tests.reference import reference_filter_block, reference_scatter_add

#: the two scatters ``src`` runs over a map's flattened indices — the compiled
#: CSR product, and the ``np.add.at`` the rank engines' ``scatter_add`` calls
#: on their own cell lists; both must equal the oracle
PATHS = {
    "csr": lambda smap, values, out: smap.add_to(values, out),
    "reference": lambda smap, values, out: np.add.at(out, smap.indices, values),
}


#: the fused in-process term against the allocating oracle, relative to max|.|
TERM_RTOL = 1e-13


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture(scope="module")
def mesh():
    return uniform_mesh((8.0, 8.0, 8.0), (3, 3, 3), 3, pbc=(True, True, True))


# ---------------------------------------------------------------------------
# ScatterMap vs np.add.at — seeded property sweep
# ---------------------------------------------------------------------------
# The bit-exactness contract must hold for *any* connectivity, not the one
# lucky mesh a hand-picked case exercises: random index arrays stress
# duplicate targets (high valence), untouched nodes (zero valence), every
# rhs-width branch, and real/complex values with and without Bloch phases.
_SWEEP_SEEDS = range(12)


def _random_scatter_case(seed):
    rng = np.random.default_rng(seed)
    nnodes = int(rng.integers(1, 90))
    # up to ~8x duplication so some nodes collect many contributions while
    # (for small sizes) others collect none
    nidx = int(rng.integers(1, 8 * nnodes + 2))
    indices = rng.integers(0, nnodes, size=nidx)
    if rng.random() < 0.5:  # exercise 2-D (cells, nloc) connectivity too
        nloc = int(rng.integers(1, 9))
        indices = rng.integers(0, nnodes, size=(max(nidx // nloc, 1), nloc))
    nrhs = int(rng.integers(1, 7))
    complex_vals = bool(rng.random() < 0.4)
    shape = (indices.size,) if nrhs == 1 and rng.random() < 0.5 else (
        indices.size, nrhs)
    values = rng.standard_normal(shape)
    if complex_vals:
        values = values + 1j * rng.standard_normal(shape)
    if rng.random() < 0.4:  # Bloch case: values carry conjugated phases
        phases = np.conj(np.exp(1j * rng.uniform(0, 2 * np.pi, indices.size)))
        values = (phases[:, None] if values.ndim == 2 else phases) * values
    return nnodes, indices, values


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("seed", _SWEEP_SEEDS)
def test_scatter_map_bitexact_property_sweep(path, seed):
    nnodes, indices, values = _random_scatter_case(seed)
    smap = ScatterMap(indices, nnodes)
    out_shape = (nnodes,) if values.ndim == 1 else (nnodes, values.shape[1])
    out = np.zeros(out_shape, dtype=values.dtype)
    PATHS[path](smap, values, out)
    ref = reference_scatter_add(indices, values, nnodes)
    if values.ndim == 1:
        ref = ref[:, 0]
    assert np.array_equal(out, ref)  # bitwise, not allclose


@pytest.mark.parametrize("path", PATHS)
def test_scatter_map_bitexact_on_mesh_connectivity(mesh, path):
    """The real FEM connectivity (the production input) stays covered."""
    rng = np.random.default_rng(3)
    smap = ScatterMap(mesh.conn, mesh.nnodes)
    values = rng.standard_normal((mesh.conn.size, 5))
    out = np.zeros((mesh.nnodes, 5), dtype=np.float64)
    PATHS[path](smap, values, out)
    assert np.array_equal(
        out, reference_scatter_add(mesh.conn, values, mesh.nnodes)
    )


# ---------------------------------------------------------------------------
# KSOperator.apply
# ---------------------------------------------------------------------------
def test_apply_rejects_aliased_out(mesh):
    """The kernel accumulates into ``out`` while it still reads its inputs:
    any ``out`` that may share memory with ``X`` or with the subtracted block
    — the array itself, a slice, a reshape — is refused, not corrupted."""
    op = KSOperator(mesh)
    op.set_potential(np.zeros(mesh.nnodes))
    n = mesh.free.size
    X = np.ones((n, 4))
    P = np.ones((n, 2))
    aliased = [
        (X, X, None),
        (X, X[:, 1:3], None),  # a slice of the wider input
        (X[:, :2], X[:, 2:], None),  # interleaved columns of one buffer
        (X[:, 0], X.reshape(-1)[: 4 * n : 4], None),  # a reshape of it
        (X[:, :2], P, P),  # the subtracted block itself
        (X[:, :2], P.reshape(2, n).T, P),  # ... and a reshape of that
    ]
    for given, out, prev in aliased:
        minus = None if prev is None else (0.5, prev)
        with pytest.raises(ValueError, match="alias"):
            op.apply(given, out=out, minus=minus)
    assert np.array_equal(X, np.ones((n, 4))) and np.array_equal(P, np.ones((n, 2)))


# ---------------------------------------------------------------------------
# Workspace reuse
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", _SWEEP_SEEDS)
def test_workspace_pooling_invariants_random_interleaving(seed):
    """Property: under any interleaving of ``get`` calls, a (tag, shape,
    dtype) key is served by one stable buffer, distinct keys never alias,
    and ``zero=True`` always hands back zeros."""
    rng = np.random.default_rng(100 + seed)
    ws = Workspace()
    tags = ["a", "b", "c"]
    shapes = [(7,), (7, 3), (12, 2), (5, 5)]
    dtypes = [np.float64, np.complex128]
    pool: dict = {}
    for _ in range(40):
        key = (
            tags[rng.integers(len(tags))],
            shapes[rng.integers(len(shapes))],
            dtypes[rng.integers(len(dtypes))],
        )
        tag, shape, dtype = key
        zero = bool(rng.random() < 0.3)
        buf = ws.get(tag, shape, dtype=dtype, zero=zero)
        assert buf.shape == shape and buf.dtype == dtype
        if zero:
            assert np.count_nonzero(buf) == 0
        if key in pool:
            assert buf is pool[key], "pooled buffer identity changed"
        else:
            for other_key, other in pool.items():
                assert buf is not other, f"{key} aliases {other_key}"
            pool[key] = buf
        buf.fill(1.0)  # dirty it: reuse must not depend on contents
    assert ws.nbytes() >= sum(b.nbytes for b in pool.values())
    ws.clear()
    assert ws.nbytes() == 0
    # after clear, keys are served by fresh storage
    fresh = ws.get("a", (7,), dtype=np.float64)
    assert fresh.shape == (7,)


def test_workspace_zero_semantics():
    ws = Workspace()
    z = ws.get("z", (8,), zero_on_create=True)
    assert np.array_equal(z, np.zeros(8))
    z[:] = 3.0
    # zero_on_create leaves an existing buffer dirty; zero=True scrubs it
    assert ws.get("z", (8,), zero_on_create=True)[0] == 3.0
    assert np.array_equal(ws.get("z", (8,), zero=True), np.zeros(8))


def test_workspace_disabled_allocates_fresh():
    ws = Workspace(enabled=False)
    a = ws.get("a", (10,), zero=True)
    b = ws.get("a", (10,), zero=True)
    assert a is not b
    assert np.array_equal(a, np.zeros(10))


# ---------------------------------------------------------------------------
# Chebyshev filtering: block-size independence and workspace equivalence
# ---------------------------------------------------------------------------
def test_chebyshev_filter_independent_of_block_size(mesh):
    """Blocked filtering must agree across block sizes.

    BLAS GEMM results legitimately wobble in the last bit with the number
    of columns (kernel/blocking selection), so cross-block-size agreement
    is to tight tolerance; at a *fixed* block size the pooled recurrence
    must match the unpooled one bit for bit — that is the regression that
    catches workspace cross-contamination between blocks — and the
    allocating oracle to the fused term's rounding.
    """
    rng = np.random.default_rng(9)
    op = KSOperator(mesh)
    op2 = KSOperator(mesh, workspace=Workspace(enabled=False))
    v = rng.standard_normal(mesh.free.size)
    op.set_potential(v)
    op2.set_potential(v)
    X = rng.standard_normal((mesh.free.size, 10))
    ref = chebyshev_filter(op, X.copy(), 9, -1.0, 25.0, -6.0).copy()
    scale = np.abs(ref).max()
    for bs in (1, 3, 7, 10, 64):
        out = chebyshev_filter(
            op, X.copy(), 9, -1.0, 25.0, -6.0, block_size=bs
        ).copy()
        assert np.allclose(out, ref, atol=1e-12 * scale, rtol=0.0), (
            f"block_size={bs} changed the filter beyond GEMM last-bit noise"
        )
        slices = [X[:, s:s + bs].copy() for s in range(0, X.shape[1], bs)]
        fresh = np.hstack([filter_block(op2, Xs, 9, -1.0, 25.0, -6.0) for Xs in slices])
        assert np.array_equal(out, fresh), (
            f"block_size={bs}: workspace reuse contaminated a block"
        )
        bare = np.hstack([
            reference_filter_block(op2, Xs, 9, -1.0, 25.0, -6.0) for Xs in slices
        ])
        assert _rel(out, bare) <= TERM_RTOL


def test_filter_block_workspace_matches_reference(mesh):
    rng = np.random.default_rng(10)
    op = KSOperator(mesh)
    op.set_potential(rng.standard_normal(mesh.free.size))
    X = rng.standard_normal((mesh.free.size, 5))
    with_ws = filter_block(op, X.copy(), 12, -0.5, 30.0, -4.0).copy()
    op2 = KSOperator(mesh, workspace=Workspace(enabled=False))
    op2.set_potential(op.potential_free)
    assert np.array_equal(with_ws, filter_block(op2, X.copy(), 12, -0.5, 30.0, -4.0))
    no_ws = reference_filter_block(op2, X.copy(), 12, -0.5, 30.0, -4.0)
    assert _rel(with_ws, no_ws) <= TERM_RTOL


@pytest.mark.parametrize("carry_hx0", [False, True])
def test_filter_block_overlapped_matches_eager_and_reference(mesh, carry_hx0):
    """One recurrence, two schedules: begin/finish on a proc fleet whose
    workers compute while the caller works, and the in-process ranks that
    run each product at the join, both reproduce the allocating oracle bit
    for bit — with and without a carried ``H X``."""
    from repro.hpc.distributed import DistributedKSOperator

    rng = np.random.default_rng(11)
    v = rng.standard_normal(mesh.nnodes)
    X = rng.standard_normal((mesh.free.size, 4))
    ops = [
        DistributedKSOperator(mesh, 2, backend="virtual"),
        DistributedKSOperator(mesh, 2, backend="proc"),
    ]
    try:
        for op in ops:
            op.set_potential(v)
        hx0 = ops[0].apply(X) if carry_hx0 else None
        want = reference_filter_block(ops[0], X, 8, -0.5, 30.0, -4.0, hx0=hx0)
        for op in ops:
            got = filter_block(op, X, 8, -0.5, 30.0, -4.0, hx0=hx0)
            assert np.array_equal(got, want), op.backend
    finally:
        for op in ops:
            op.close()
