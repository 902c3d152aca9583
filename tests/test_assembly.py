"""Cell-level batched assembly: stiffness action, KS operator, Bloch path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atoms.nonlocal_psp import NonlocalProjector
from repro.core.chebyshev import chebyshev_filter
from repro.fem.assembly import CellStiffness, KSOperator
from repro.fem.mesh import Mesh3D, graded_edges, uniform_mesh
from repro.fem.workspace import Workspace
from repro.hpc.distributed import DistributedKSOperator

from tests.reference import reference_apply_cells, reference_cf_term


def _dense_K(stiff: CellStiffness) -> np.ndarray:
    """Assemble the dense stiffness for comparison (tiny meshes only)."""
    mesh = stiff.mesh
    n = mesh.nnodes
    K = np.zeros((n, n), dtype=stiff.dtype)
    for c in range(mesh.ncells):
        Kc = stiff.cell_matrix(c)
        idx = mesh.conn[c]
        if stiff.phases is not None:
            ph = stiff.phases[c]
            Kc = np.conj(ph)[:, None] * Kc * ph[None, :]
        K[np.ix_(idx, idx)] += Kc
    return K


@pytest.mark.parametrize("p", [2, 3])
def test_apply_matches_dense_assembly(p):
    m = uniform_mesh((1.0, 1.0, 1.0), (2, 2, 2), degree=p)
    stiff = CellStiffness(m)
    K = _dense_K(stiff)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(m.nnodes, 3))
    assert np.allclose(stiff.apply_full(X), K @ X, atol=1e-10)


def test_apply_graded_mesh_matches_dense():
    edges = (
        graded_edges(2.0, 3, center=1.0, ratio=2.5),
        graded_edges(1.0, 2),
        graded_edges(1.0, 2),
    )
    m = Mesh3D(edges=edges, degree=2)
    stiff = CellStiffness(m)
    assert not stiff.is_uniform
    K = _dense_K(stiff)
    x = np.random.default_rng(1).normal(size=m.nnodes)
    assert np.allclose(stiff.apply_full(x), K @ x, atol=1e-10)


def _kernel_mesh(graded: bool, degree: int) -> Mesh3D:
    """3x2x2 cells, x and z periodic; graded: every cell a different shape."""
    ratio = 2.5 if graded else 1.0
    edges = (
        graded_edges(2.0, 3, center=0.7, ratio=ratio),
        graded_edges(1.0, 2, center=0.2, ratio=ratio),
        graded_edges(1.5, 2, center=1.0, ratio=ratio),
    )
    return Mesh3D(edges=edges, degree=degree, pbc=(True, False, True))


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "fresh"])
@pytest.mark.parametrize("subset", [False, True], ids=["all", "strided"])
@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("kfrac", [None, (0.3, 0.0, 0.25)], ids=["gamma", "bloch"])
@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
def test_apply_cells_matches_dense_reference(graded, kfrac, degree, B, subset, pooled):
    """The shipped cell-local product (one fused GEMM on uniform meshes, the
    sum-factorised one on graded meshes, complex blocks through their real
    view) against the three dense Kronecker GEMMs it replaced."""
    m = _kernel_mesh(graded, degree)
    stiff = CellStiffness(m, kfrac=kfrac)
    assert stiff.is_uniform is not graded
    rng = np.random.default_rng(degree * 10 + B)
    X = rng.normal(size=(m.nnodes, B))
    if kfrac is not None:
        X = X + 1j * rng.normal(size=X.shape)
    cells = np.arange(m.ncells)[1::3] if subset else None
    Xc = stiff.gather(X, cells=cells)
    want = reference_apply_cells(stiff, Xc, cells)
    got = stiff.apply_cells(Xc, workspace=Workspace() if pooled else None, cells=cells)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kfrac", [None, (0.3, 0.0, 0.25)], ids=["gamma", "bloch"])
@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
def test_apply_cells_non_contiguous_block(graded, kfrac):
    """A strided ``Xc`` gives the bits of its contiguous copy and is left
    untouched: the float view and the ``out=`` reshapes never land in a copy."""
    m = _kernel_mesh(graded, 3)
    stiff = CellStiffness(m, kfrac=kfrac)
    rng = np.random.default_rng(5)
    wide = rng.normal(size=(m.ncells, m.nodes_per_cell, 8)).astype(stiff.dtype)
    if kfrac is not None:
        wide += 1j * rng.normal(size=wide.shape)
    Xc = wide[:, :, ::2]
    assert not Xc.flags.c_contiguous
    before = wide.copy()
    ws = Workspace()
    got = stiff.apply_cells(Xc, workspace=ws)
    assert np.array_equal(wide, before)
    assert np.array_equal(got, stiff.apply_cells(np.ascontiguousarray(Xc)))
    assert np.abs(got - reference_apply_cells(stiff, Xc)).max() <= 1e-13 * np.abs(got).max()


def test_gemm_flops_follow_the_kernel():
    """Dense 2 npc per value on uniform meshes, 2 (n1^2 + n1 + 1) factorised
    on graded ones; a complex block is twice the real columns, not four."""
    for graded, per_cell_column in ((False, 2 * 125 * 125), (True, 7750)):
        stiff = CellStiffness(_kernel_mesh(graded, 4))
        assert stiff.gemm_flops(3, 7, np.float64) == 3 * 7 * per_cell_column
        assert stiff.gemm_flops(3, 7, np.complex128) == 2 * 3 * 7 * per_cell_column


def test_stiffness_annihilates_constants_periodic():
    m = uniform_mesh((1.0, 1.0, 1.0), (2, 2, 2), degree=2, pbc=(True, True, True))
    stiff = CellStiffness(m)
    ones = np.ones(m.nnodes)
    assert np.allclose(stiff.apply_full(ones), 0.0, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_gather_scatter_adjointness(seed):
    """Property: scatter is the adjoint of gather, <Sx, y> == <x, G^H y>."""
    m = uniform_mesh((1.0, 1.0, 1.0), (2, 2, 1), degree=2, pbc=(True, False, False))
    stiff = CellStiffness(m, kfrac=(0.3, 0.0, 0.0))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m.nnodes, 1)) + 1j * rng.normal(size=(m.nnodes, 1))
    Yc = rng.normal(size=(m.ncells, m.nodes_per_cell, 1)) + 1j * rng.normal(
        size=(m.ncells, m.nodes_per_cell, 1)
    )
    Gx = stiff.gather(x)
    out = np.zeros((m.nnodes, 1), dtype=complex)
    stiff.scatter_add(Yc, out)
    lhs = np.vdot(Yc, Gx)
    rhs = np.vdot(out, x)
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_ks_operator_hermitian_and_real_spectrum():
    m = uniform_mesh((4.0, 4.0, 4.0), (2, 2, 2), degree=3)
    op = KSOperator(m)
    r = m.node_coords - 2.0
    v = -1.0 / np.sqrt(np.einsum("ij,ij->i", r, r) + 1.0)
    op.set_potential(v)
    H = op.matrix()
    assert np.allclose(H, H.T, atol=1e-10)
    evals = np.linalg.eigvalsh(H)
    assert evals[0] > -10  # bounded below


def test_ks_operator_bloch_hermitian():
    m = uniform_mesh((3.0, 3.0, 3.0), (2, 2, 2), degree=2, pbc=(True, False, False))
    op = KSOperator(m, kfrac=(0.25, 0.0, 0.0))
    v = np.cos(2 * np.pi * m.node_coords[:, 0] / 3.0)
    op.set_potential(v)
    H = op.matrix()
    assert np.allclose(H, H.conj().T, atol=1e-10)


def test_ks_operator_graded_bloch_hermitian():
    """Graded mesh, one periodic axis, k != 0: one complex axis matrix, two
    real ones."""
    edges = (
        graded_edges(2.0, 3, center=0.7, ratio=2.5),
        graded_edges(1.0, 2, center=0.2, ratio=2.5),
        graded_edges(1.5, 2, center=1.0, ratio=2.5),
    )
    m = Mesh3D(edges=edges, degree=3, pbc=(True, False, False))
    op = KSOperator(m, kfrac=(0.3, 0.0, 0.0))
    assert [np.iscomplexobj(A) for A in op.kinetic.matrices] == [True, False, False]
    op.set_potential(np.cos(2 * np.pi * m.node_coords[:, 0] / 2.0))
    H = op.matrix()
    assert np.abs(H.imag).max() > 1e-3  # the phases really act
    assert np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(H).max()
    assert np.allclose(op.diagonal(), np.diag(H).real, atol=1e-11)


def test_ks_operator_diagonal_matches_dense():
    m = uniform_mesh((3.0, 3.0, 3.0), (2, 2, 2), degree=2)
    op = KSOperator(m)
    v = m.node_coords[:, 0] * 0.1
    op.set_potential(v)
    H = op.matrix()
    assert np.allclose(op.diagonal(), np.diag(H).real, atol=1e-11)


def test_free_particle_periodic_eigenvalues():
    """Plane-wave spectrum of -1/2 lap on a periodic box: 0, then (2pi/L)^2/2."""
    L = 2.0
    m = uniform_mesh((L, L, L), (3, 3, 3), degree=4, pbc=(True, True, True))
    op = KSOperator(m)
    op.set_potential(np.zeros(m.nnodes))
    H = op.matrix()
    evals = np.sort(np.linalg.eigvalsh(H))
    assert abs(evals[0]) < 1e-8
    expected = 0.5 * (2 * np.pi / L) ** 2
    # next 6 eigenvalues are the +-x, +-y, +-z plane waves
    assert np.allclose(evals[1:7], expected, rtol=1e-3)


def test_bloch_shifts_free_particle_spectrum():
    """At k = 1/2 the lowest free-electron level is (pi/L)^2/2, doubly degenerate."""
    L = 2.0
    m = uniform_mesh((L, L, L), (3, 2, 2), degree=4, pbc=(True, False, False))
    # compare Gamma vs k=0.5 lowest eigenvalue shift in a Dirichlet y,z box
    op0 = KSOperator(m)
    op0.set_potential(np.zeros(m.nnodes))
    opk = KSOperator(m, kfrac=(0.5, 0.0, 0.0))
    opk.set_potential(np.zeros(m.nnodes))
    e0 = np.linalg.eigvalsh(op0.matrix())[0]
    ek = np.linalg.eigvalsh(opk.matrix())[0]
    assert np.isclose(ek - e0, 0.5 * (np.pi / L) ** 2, rtol=1e-3)


# ---------------------------------------------------------------------------
# The in-process kernel (three axis GEMMs on the free block) against the
# cell-level assembly it replaced there: gather -> cell GEMM -> scatter on a
# one-rank virtual cluster
# ---------------------------------------------------------------------------
_PBC = {"FFF": (False,) * 3, "TTT": (True,) * 3, "TTF": (True, True, False)}
_KPOINTS = {"gamma": None, "kz": (0.0, 0.0, 0.25), "kxy": (1 / 3, 0.25, 0.0)}


def _contract_mesh(graded: bool, pbc: str, degree: int) -> Mesh3D:
    """3x1x2 cells: with ``pbc`` the one-cell y axis repeats a node inside its
    own cell."""
    ratio = 2.5 if graded else 1.0
    edges = (
        graded_edges(2.0, 3, center=0.7, ratio=ratio),
        graded_edges(1.0, 1),
        graded_edges(1.5, 2, center=1.0, ratio=ratio),
    )
    return Mesh3D(edges=edges, degree=degree, pbc=_PBC[pbc])


def _allowed(pbc: str, k: str) -> bool:
    kfrac = _KPOINTS[k] or (0.0,) * 3
    return all(per or ka == 0.0 for per, ka in zip(_PBC[pbc], kfrac))


def _operator_pair(mesh, kfrac, **kw):
    """The in-process operator and its cell-level oracle, same potential and
    projectors (a Gaussian near the box centre)."""
    projs = [NonlocalProjector(tuple(0.45 * mesh.lengths), 0.7, 0.4)]
    op = KSOperator(mesh, kfrac=kfrac, nonlocal_projectors=projs, **kw)
    oracle = DistributedKSOperator(
        mesh, 1, kfrac=kfrac, backend="virtual", nonlocal_projectors=projs
    )
    v = np.random.default_rng(3).standard_normal(mesh.nnodes)
    op.set_potential(v)
    oracle.set_potential(v)
    return op, oracle


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "pbc,k", [(p, k) for p in _PBC for k in _KPOINTS if _allowed(p, k)]
)
@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
def test_axis_kernel_matches_cell_assembly(graded, pbc, k, degree):
    mesh = _contract_mesh(graded, pbc, degree)
    op, oracle = _operator_pair(mesh, _KPOINTS[k])
    fresh, _ = _operator_pair(mesh, _KPOINTS[k], workspace=Workspace(enabled=False))
    assert op.dtype == oracle.dtype
    rng = np.random.default_rng(degree)
    wide = rng.standard_normal((op.n, 2 * 37)).astype(op.dtype)
    if _KPOINTS[k] is not None:
        wide += 1j * rng.standard_normal(wide.shape)
    blocks = [wide[:, 0]] + [wide[:, :B] for B in (1, 8, 37)] + [wide[:, ::2]]
    assert not blocks[1].flags.c_contiguous and not blocks[-1].flags.c_contiguous
    before = wide.copy()
    for X in blocks:
        want = oracle.apply(X)
        got = op.apply(X)
        assert got.shape == want.shape == X.shape and got.dtype == want.dtype
        assert _rel(got, want) <= 1e-13
        # out=, a fresh result and an unpooled workspace: one set of bits
        out = np.empty_like(got)
        assert op.apply(X, out=out) is out
        assert np.array_equal(out, got)
        assert np.array_equal(fresh.apply(X), got)
        # one Chebyshev term, fused, against the oracle's allocating passes
        # (the rank engine's own term is those passes, bit for bit)
        prev = wide[:, 37:37 + X.shape[1]] if X.ndim == 2 else wide[:, 37]
        term = dict(scale=-0.37, shift=11.5, minus=(0.61, prev))
        want = reference_cf_term(want, X, **term)
        got = op.apply(X, **term)
        assert got.shape == X.shape and got.dtype == want.dtype
        assert _rel(got, want) <= 1e-13
        assert np.array_equal(op.apply(X, out=out, **term), got)
        assert np.array_equal(fresh.apply(X, **term), got)
        assert np.array_equal(oracle.apply(X, **term), want)
    assert np.array_equal(wide, before)  # inputs are only read
    # the dense matrix, its symmetry and the closed-form diagonal
    H = op.matrix()
    assert np.abs(H - H.conj().T).max() <= 1e-13 * np.abs(H).max()
    assert _rel(H, oracle.matrix()) <= 1e-13
    assert np.abs(op.diagonal() - np.diag(H).real).max() <= 1e-13 * np.abs(H).max()
    assert np.abs(oracle.diagonal() - op.diagonal()).max() == 0.0
    # Weyl's bound, potential and projector included: above the dense
    # spectrum, and the same bits on the cell engine
    assert op.spectral_upper_bound() == oracle.spectral_upper_bound()
    assert op.spectral_upper_bound() >= np.linalg.eigvalsh(H)[-1]


@pytest.mark.parametrize("pbc,k", [("FFF", "gamma"), ("TTT", "gamma"), ("TTF", "kxy")])
def test_spectral_upper_bound_is_the_free_top_eigenvalue(pbc, k):
    """With ``v = 0`` and no projectors the bound is the Kronecker sum's top
    eigenvalue: exact, on a Dirichlet, a periodic and a Bloch mesh."""
    op = KSOperator(_contract_mesh(True, pbc, 3), kfrac=_KPOINTS[k])
    top = np.linalg.eigvalsh(op.matrix())[-1]
    assert abs(op.spectral_upper_bound() - top) <= 1e-12 * abs(top)


@pytest.mark.parametrize(
    "pbc,k", [(p, k) for p in _PBC for k in _KPOINTS if not _allowed(p, k)]
)
def test_bloch_component_on_dirichlet_axis_is_refused(pbc, k):
    with pytest.raises(ValueError, match="non-periodic"):
        KSOperator(_contract_mesh(False, pbc, 2), kfrac=_KPOINTS[k])


def test_apply_into_strided_or_wider_out():
    """An ``out`` that is not a contiguous block of the result dtype still
    receives the result (through a pooled block)."""
    mesh = _contract_mesh(True, "TTF", 3)
    op, _ = _operator_pair(mesh, None)
    X = np.random.default_rng(0).standard_normal((op.n, 4))
    want = op.apply(X)
    wide = np.zeros((op.n, 8))
    assert np.array_equal(op.apply(X, out=wide[:, ::2]), want)
    assert np.array_equal(wide[:, ::2], want) and not wide[:, 1::2].any()
    as_complex = np.empty((op.n, 4), dtype=complex)
    op.apply(X, out=as_complex)
    assert np.array_equal(as_complex, want.astype(complex))


def _misaligned(shape, dtype) -> np.ndarray:
    """An empty C-contiguous block whose data sits one byte off alignment."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    block = np.empty(nbytes + 1, dtype=np.uint8)[1:].view(dtype).reshape(shape)
    assert block.flags.c_contiguous and not block.flags.aligned
    return block


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "fresh"])
@pytest.mark.parametrize("k", ["gamma", "kz"])
def test_term_survives_blocks_blas_would_copy(k, pooled):
    """An f2py BLAS wrapper handed a ``c`` that is strided, Fortran-ordered,
    misaligned or of another dtype works on a *copy* and the accumulate is
    lost without an error: every such ``X`` / ``out`` / subtracted block
    must come out equal to the allocating oracle's term all the same."""
    mesh = _contract_mesh(True, "TTT", 3)
    op, oracle = _operator_pair(
        mesh, _KPOINTS[k], workspace=Workspace(enabled=pooled)
    )
    n, dt = op.n, op.dtype
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((n, 16)).astype(dt)
    prev = rng.standard_normal((n, 16)).astype(dt)
    if _KPOINTS[k] is not None:
        wide += 1j * rng.standard_normal(wide.shape)
        prev += 1j * rng.standard_normal(prev.shape)
    term = dict(scale=0.83, shift=-4.25)

    def check(X, out, P):
        minus = (0.31, P)
        want = reference_cf_term(oracle.apply(X), X, minus=minus, **term)
        got = op.apply(X, out=out, minus=minus, **term)
        if out is not None:
            assert got is out
        assert got.shape == X.shape
        assert _rel(got, want) <= 1e-13

    X, P = wide[:, 3:11], prev[:, 3:11]  # strided input and subtracted block
    assert not X.flags.c_contiguous
    check(X, None, P)
    check(X, np.empty((n, 8), dtype=dt), np.ascontiguousarray(P))
    check(np.ascontiguousarray(X), np.empty((n, 8), dtype=dt, order="F"), P)
    check(np.ascontiguousarray(X), _misaligned((n, 8), dt), np.ascontiguousarray(P))
    check(np.asfortranarray(X), np.empty((8, n), dtype=dt).T, np.asfortranarray(P))
    # a real block on a (possibly) complex operator, into a complex out
    check(X.real, np.empty((n, 8), dtype=complex), P.real.copy())
    # one vector, with and without out=
    check(wide[:, 0], None, prev[:, 0])
    check(wide[:, 0].copy(), np.empty(n, dtype=dt), prev[:, 0].copy())
    check(wide[:, 0].copy(), np.empty((n, 2), dtype=dt)[:, 1], prev[:, 0])


def test_folded_potential_belongs_to_the_instance():
    """The kernel's last axis carries the potential: a clone must not share
    it and ``set_potential`` must drop it — two clones with different
    potentials, applied in interleaved order, each equal to a fresh operator
    on its own potential."""
    mesh = _contract_mesh(True, "TTT", 3)
    rng = np.random.default_rng(6)
    op, _ = _operator_pair(mesh, _KPOINTS["kz"])
    X = rng.standard_normal((op.n, 5)) + 1j * rng.standard_normal((op.n, 5))
    v = [rng.standard_normal(mesh.nnodes) for _ in range(3)]

    def fresh(v_full):
        other, _ = _operator_pair(mesh, _KPOINTS["kz"])
        other.set_potential(v_full)
        return other.apply(X)

    op.set_potential(v[0])
    first = op.apply(X)  # folds v[0] before the clones are taken
    a, b = op.clone(), op.clone()
    a.set_potential(v[1])
    assert np.array_equal(b.apply(X), first)
    b.set_potential(v[2])
    for _ in range(2):
        assert np.array_equal(a.apply(X), fresh(v[1]))
        assert np.array_equal(op.apply(X), first)
        assert np.array_equal(b.apply(X), fresh(v[2]))
    a.set_potential(v[2])
    assert np.array_equal(a.apply(X), b.apply(X))
    assert np.array_equal(op.apply(X), fresh(v[0]))


def test_axis_kernel_flops_closed_form():
    """2 f_a per real value on a real axis (a complex block is 2B real
    columns), 8 f_a per complex value on the Bloch axis."""
    mesh = _contract_mesh(False, "TTT", 3)
    fx, fy, fz = mesh.nnodes_axis
    n = fx * fy * fz
    gamma = KSOperator(mesh).kinetic
    assert gamma.shape == (fx, fy, fz)
    assert gamma.flops(7, np.float64) == 2 * (fx + fy + fz) * n * 7
    assert gamma.flops(7, np.complex128) == 4 * (fx + fy + fz) * n * 7
    bloch = KSOperator(mesh, kfrac=(0.0, 0.0, 0.25)).kinetic
    assert bloch.flops(7, np.complex128) == (4 * (fx + fy) + 8 * fz) * n * 7


def test_chebyshev_filter_on_axis_kernel_independent_of_block_size():
    mesh = _contract_mesh(True, "TTT", 3)
    op, oracle = _operator_pair(mesh, _KPOINTS["kz"])
    rng = np.random.default_rng(4)
    X = rng.standard_normal((op.n, 10)) + 1j * rng.standard_normal((op.n, 10))
    bounds = dict(m=9, a=5.0, b=400.0, a0=-3.0)
    ref = chebyshev_filter(op, X, **bounds)
    scale = np.abs(ref).max()
    for bs in (1, 3, 10):
        got = chebyshev_filter(op, X, block_size=bs, **bounds)
        assert np.abs(got - ref).max() <= 1e-12 * scale
    assert np.abs(chebyshev_filter(oracle, X, **bounds) - ref).max() <= 1e-11 * scale
