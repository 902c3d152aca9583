"""Fast diagonalization of the assembled stiffness on a tensor-product mesh.

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
pseudo-inverse whose result has zero mean.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FastDiagonalization"]


def _axis_eigenpairs(mesh, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lambda, S)`` of the 1-D pencil ``(K_a, W_a)`` over the free rows."""
    ref = mesh.ref
    h = np.diff(mesh.edges[axis])
    conn = mesh._axis_conn[axis]
    n = mesh.nnodes_axis[axis]
    K = np.zeros((n, n))
    W = np.zeros(n)
    # np.add.at: a one-cell periodic axis repeats a node within its cell
    np.add.at(
        K,
        (conn[:, :, None], conn[:, None, :]),
        (2.0 / h)[:, None, None] * ref.stiff1d,
    )
    np.add.at(W, conn, (h / 2.0)[:, None] * ref.weights1d)
    periodic = mesh.pbc[axis]
    if not periodic:
        K, W = K[1:-1, 1:-1], W[1:-1]
    d = 1.0 / np.sqrt(W)
    A = d[:, None] * K * d[None, :]
    lam, Q = np.linalg.eigh(0.5 * (A + A.T))
    if periodic:
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
