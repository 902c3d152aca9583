"""The tensor-product structure of the mesh: the 1-D pencils, the fast
diagonalization of the stiffness and the axis-factorised kinetic operator.

:class:`~repro.fem.mesh.Mesh3D` is always a tensor product of three 1-D
subdivisions and its GLL mass is diagonal, so the assembled operators over
the free DoFs are exactly

.. math::

    K = K_x \\otimes W_y \\otimes W_z + W_x \\otimes K_y \\otimes W_z
        + W_x \\otimes W_y \\otimes K_z,
    \\qquad M = W_x \\otimes W_y \\otimes W_z,

with the 1-D stiffness ``K_a = sum_c (2/h_c) khat`` and diagonal 1-D mass
``W_a = sum_c (h_c/2) w`` assembled over the axis connectivity (interior
rows only on Dirichlet axes, wrapped on periodic ones).  The generalized
eigenvectors ``K_a S_a = W_a S_a Lambda_a``, ``S_a^T W_a S_a = I``
diagonalize both at once (Lynch, Rice & Thomas 1964), so with
``S = S_x (x) S_y (x) S_z``

.. math::

    (K + \\sigma M)^{-1} = S\\,
        (\\Lambda_x \\oplus \\Lambda_y \\oplus \\Lambda_z + \\sigma)^{-1} S^T

is six small GEMMs on the ``(fx, fy, fz)``-reshaped free vector — cheaper
than one cell-level stiffness apply.  On a fully periodic mesh ``K`` has the
constant nullspace; at ``sigma == 0`` that single mode is dropped, giving the
pseudo-inverse whose result has zero mean.  The same pencils give the
Kohn-Sham kinetic operator as a Kronecker *sum* (:class:`AxisKinetic`).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import daxpy, dgemm, zaxpy, zgemm

__all__ = ["AxisKinetic", "FastDiagonalization", "axis_pencil"]


#: the in-place BLAS calls of :meth:`AxisKinetic.apply`, by dtype
_GEMM = {np.dtype(np.float64): dgemm, np.dtype(np.complex128): zgemm}
_AXPY = {np.dtype(np.float64): daxpy, np.dtype(np.complex128): zaxpy}


def axis_pencil(mesh, axis: int, k: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D pencil ``(K_a, W_a)`` of one axis over its free rows.

    ``K_a`` is real at ``k == 0``; a Bloch component ``k`` (reduced units,
    periodic axes only) puts ``exp(+-2*pi*i*k)`` on its wrapped entries:
    complex Hermitian.  ``W_a`` is the diagonal, as a vector.
    """
    ref = mesh.ref
    h = np.diff(mesh.edges[axis])
    conn = mesh._axis_conn[axis]
    n = mesh.nnodes_axis[axis]
    Kc = (2.0 / h)[:, None, None] * ref.stiff1d
    ph = mesh.axis_phases(axis, k)
    if ph is not None:
        Kc = np.conj(ph)[:, :, None] * Kc * ph[:, None, :]
    K = np.zeros((n, n), dtype=Kc.dtype)
    W = np.zeros(n)
    # np.add.at: a one-cell periodic axis repeats a node within its cell
    np.add.at(K, (conn[:, :, None], conn[:, None, :]), Kc)
    np.add.at(W, conn, (h / 2.0)[:, None] * ref.weights1d)
    if not mesh.pbc[axis]:
        K, W = K[1:-1, 1:-1], W[1:-1]
    return K, W


def _axis_eigenpairs(mesh, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lambda, S)`` of the 1-D pencil ``(K_a, W_a)`` over the free rows."""
    K, W = axis_pencil(mesh, axis)
    d = 1.0 / np.sqrt(W)
    A = d[:, None] * K * d[None, :]
    lam, Q = np.linalg.eigh(0.5 * (A + A.T))
    if mesh.pbc[axis]:
        lam[0] = 0.0  # the constant mode, known exactly
    return lam, np.ascontiguousarray(d[:, None] * Q)


class FastDiagonalization:
    """Exact separable inverse of ``K + shift*M`` over a mesh's free DoFs.

    Immutable after construction; one instance per mesh
    (:attr:`Mesh3D.fdm`) is shared by every solver on it.
    """

    def __init__(self, mesh) -> None:
        (lx, sx), (ly, sy), (lz, sz) = (_axis_eigenpairs(mesh, a) for a in range(3))
        self._S = (sx, sy, sz)
        self._lam = lx[:, None, None] + ly[None, :, None] + lz[None, None, :]
        #: free DoFs per axis; ``mesh.free`` is their C-ordered product
        self.shape = self._lam.shape
        # 1/Lambda of the unshifted operator, the per-solve case; a fully
        # periodic mesh drops its single zero mode (pseudo-inverse)
        lam0 = self._lam.copy()
        if all(mesh.pbc):
            lam0[0, 0, 0] = np.inf
        self._inv0 = 1.0 / lam0
        fx, fy, fz = self.shape
        #: FLOPs of one :meth:`solve` (forward + backward transform GEMMs)
        self.flops = 4 * (fx + fy + fz) * fx * fy * fz

    def solve(
        self, b_free: np.ndarray, shift: float | np.ndarray = 0.0
    ) -> np.ndarray:
        """``(K + shift*M)^{-1} b`` on the free DoFs (pseudo-inverse when
        the mesh is fully periodic and ``shift == 0``).

        ``b_free`` is one real vector ``(n,)`` or a real block ``(n, B)``;
        a block takes a scalar shift or one per column, ``(B,)``.  Columns
        are laid out first, ``(B, fx, fy, fz)``, so a vector is the
        ``B == 1`` block: the same GEMMs in the same shapes, bit for bit.
        """
        sx, sy, sz = self._S
        fx, fy, fz = self.shape
        shift = np.asarray(shift, dtype=float)
        if shift.ndim:
            inv = 1.0 / (self._lam + shift[:, None, None, None])
        else:
            inv = self._inv0 if shift == 0.0 else 1.0 / (self._lam + shift)
        cols = b_free.T  # (n,) as is; (n, B) -> (B, n)
        t = np.matmul(sx.T, cols.reshape(-1, fx, fy * fz))
        t = np.matmul(sy.T, t.reshape(-1, fy, fz))
        t = t.reshape(-1, fz) @ sz
        t = t.reshape(-1, fx, fy, fz) * inv
        t = t.reshape(-1, fz) @ sz.T
        t = np.matmul(sy, t.reshape(-1, fy, fz))
        t = np.matmul(sx, t.reshape(-1, fx, fy * fz))
        return t.reshape(cols.shape).T


class AxisKinetic:
    """The Löwdin kinetic operator as a Kronecker sum of three 1-D matrices.

    With ``D = W_x (x) W_y (x) W_z`` the diagonal mass over the free DoFs,
    ``D^{-1/2} (K/2) D^{-1/2} = A_x (+) A_y (+) A_z`` with
    ``A_a = W_a^{-1/2} (K_a/2) W_a^{-1/2}``, exactly — uniform or graded,
    Dirichlet or periodic — so on the ``(fx, fy, fz, B)``-shaped free block
    the product is one GEMM per axis, ``2 (fx + fy + fz)`` FLOPs per value,
    with no free->full lift, no gather to cell-local nodes and no scatter.
    ``A_a`` is real where ``k_a == 0`` and takes a complex block as ``2B``
    real columns; only an axis with ``k_a != 0`` multiplies in complex
    arithmetic.  The matrices are dense: ``n_a`` is tens of rows here, where
    a banded form (``2p + 1`` entries per row) is all call overhead.
    Immutable after construction: shared by the (k, spin) channel clones.
    """

    def __init__(self, mesh, kfrac: tuple[float, float, float] | None = None) -> None:
        mats = []
        for axis, k in enumerate(kfrac if kfrac is not None else (0.0,) * 3):
            K, W = axis_pencil(mesh, axis, k)
            d = 1.0 / np.sqrt(W)
            mats.append(np.ascontiguousarray(0.5 * (d[:, None] * K * d[None, :])))
        self.matrices = tuple(mats)
        #: free DoFs per axis; ``mesh.free`` is their C-ordered product
        self.shape = tuple(A.shape[0] for A in mats)
        self.dtype = np.result_type(*mats)
        #: exact: a Kronecker sum's eigenvalues are the sums of its terms'
        self.top_eigenvalue = sum(float(np.linalg.eigvalsh(A)[-1]) for A in mats)

    def fold(self, diag: np.ndarray) -> np.ndarray:
        """``A_z + diag(d[ix, iy, :])`` for every ``(ix, iy)``: the last axis
        with a real diagonal ``d`` over the free DoFs folded into it, as the
        ``(fx*fy, fz, fz)`` batch :meth:`apply` multiplies by — ``n * fz``
        values, built once per ``d``."""
        Az = self.matrices[2]
        fz = Az.shape[0]
        last = np.empty((diag.size // fz, fz, fz), dtype=Az.dtype)
        last[...] = Az
        last.reshape(-1, fz * fz)[:, :: fz + 1] += diag.reshape(-1, fz)
        return last

    def apply(
        self, X: np.ndarray, out: np.ndarray, last: np.ndarray,
        scale: float = 1.0, shift: float = 0.0,
        minus: tuple[float, np.ndarray] | None = None,
    ) -> np.ndarray:
        """``out = scale * (A_x (+) A_y (+) last - shift) X - beta * P``.

        ``last`` is the last axis' :meth:`fold`; ``minus = (beta, P)``.
        ``X``, ``out`` and ``P`` are distinct aligned C-contiguous ``(n, B)``
        blocks of one dtype, ``self.dtype`` or complex.  The last axis
        writes ``out`` (a batched GEMM, one matrix per ``(ix, iy)``); the
        other two *accumulate* into it through BLAS ``beta`` on the
        transposed views (a C-ordered block is a Fortran matrix with the
        columns leading), so nothing is added, scaled or shifted in a pass
        of its own: ``shift`` goes into the first axis' diagonal, ``scale``
        into ``alpha`` — and into the first axis' ``beta``, which scales
        what the last axis wrote — and ``P`` is one ``axpy``.
        """
        fx, fy, fz = self.shape
        Ax, Ay, _ = self.matrices
        # a real matrix sees a complex block through its float64 view
        x, y = X.view(last.dtype), out.view(last.dtype)
        np.matmul(last, x.reshape(fx * fy, fz, -1), out=y.reshape(fx * fy, fz, -1))
        if shift:
            Ax = Ax.copy()
            Ax.reshape(-1)[:: fx + 1] -= shift
        x, y = X.view(Ax.dtype).reshape(fx, -1), out.view(Ax.dtype).reshape(fx, -1)
        _GEMM[Ax.dtype](scale, x.T, Ax.T, scale, y.T, 0, 0, 1)
        # the middle axis: one slab per ix (positional trans_a, trans_b,
        # overwrite_c: this loop is most of a single vector's call overhead)
        gemm, AyT = _GEMM[Ay.dtype], Ay.T
        x, y = X.view(Ay.dtype).reshape(fx, fy, -1), out.view(Ay.dtype).reshape(fx, fy, -1)
        for xs, ys in zip(x.transpose(0, 2, 1), y.transpose(0, 2, 1)):
            gemm(scale, xs, AyT, 1.0, ys, 0, 0, 1)
        if minus is not None:
            beta, P = minus
            _AXPY[out.dtype](P.reshape(-1), out.reshape(-1), a=-beta)
        return out

    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator over the free DoFs (real)."""
        dx, dy, dz = (np.diag(A).real for A in self.matrices)
        return (dx[:, None, None] + dy[None, :, None] + dz[None, None, :]).ravel()

    def flops(self, B: int, dtype) -> int:
        """Closed-form FLOPs of :meth:`apply` on ``B`` columns of ``dtype``:
        2 per multiply-add on real values, 8 on complex ones."""
        reals = np.dtype(dtype).itemsize // 8  # real values per block entry
        per_value = sum(
            (8 if np.iscomplexobj(A) else 2 * reals) * A.shape[0]
            for A in self.matrices
        )
        return per_value * int(np.prod(self.shape)) * B
