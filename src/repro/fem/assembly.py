"""Cell-level batched operator application (the paper's ``Assembly_FE``).

The central HPC kernel of the paper recasts the sparse-matrix product
``Y = H X`` (H: FE-discretized Hamiltonian, X: block of wavefunctions) as

.. math::

    Y = \\mathrm{Assembly}_{FE}\\{H_{c} X_{c}\\},

i.e. gather each wavefunction block onto cell-local nodes, multiply by the
``(p+1)^3 x (p+1)^3`` cell matrix with *batched* GEMMs, and scatter-add
back.  Here the batched GEMM is a broadcasted ``numpy.matmul`` over a
``(ncells, nodes_per_cell, block)`` tensor — the data layout of
``xGEMMStridedBatched`` on the GPU.  The cell-local product comes in two
forms, chosen by the mesh (:attr:`CellStiffness.is_uniform`): the paper's
dense fused GEMM on uniform meshes, its sum-factorised equal on graded ones.

Under the diagonal-mass (Löwdin) transformation the Kohn-Sham operator is

.. math::

    \\tilde{H} = D^{-1/2}\\,(K/2)\\,D^{-1/2} + \\mathrm{diag}(v),

with ``K`` the assembled stiffness and ``v`` the total effective potential at
the nodes, so only the kinetic part needs GEMMs.  Two engines form it
(DESIGN.md §9).  The rank backends partition *cells*, so they run the
cell-level flow above (:meth:`CellStiffness.add_cells` per rank, halos
metered), as do Poisson's residual and the one-electron integrals
(:meth:`CellStiffness.apply_full`, through the mesh's precompiled
:class:`~repro.fem.scatter.ScatterMap`).  In one process the tensor-product
mesh makes the kinetic operator a Kronecker sum of three 1-D matrices
(:class:`~repro.fem.fdm.AxisKinetic`): :meth:`KSOperator.apply` multiplies
the free block itself — no lift, gather, cell tensor or scatter — with the
potential folded into the last axis' matrices and a Chebyshev term's scale,
shift and subtraction inside the same three GEMMs.
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace_region
from repro.resilience import faults as _faults
from repro.tools.contracts import shape_contract

from .fdm import AxisKinetic
from .mesh import Mesh3D
from .workspace import UNPOOLED, Workspace

__all__ = ["CellStiffness", "KSOperator"]


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


class CellStiffness:
    """Matrix-free assembled stiffness ``K`` applied via batched cell GEMMs.

    For an axis-aligned cell of size ``(hx, hy, hz)`` the cell stiffness is
    real and separable: with ``k`` the 1-D reference stiffness, ``W`` the
    diagonal 1-D GLL weights and ``n1 = p + 1``::

        K_c = c1 k(x)W(x)W + c2 W(x)k(x)W + c3 W(x)W(x)k
        c1 = hy*hz/(2*hx),  c2 = hx*hz/(2*hy),  c3 = hx*hy/(2*hz)

    * **Uniform mesh** (all cells one shape): the three terms are pre-summed
      into a single dense ``npc x npc`` matrix applied with one batched GEMM
      per block — the paper's fused kernel, ``2 npc`` FLOPs per cell-local
      value.  It stays dense because it measures faster there at degree 3
      (B = 37: 0.34 ms vs 0.41 ms factorised on 64 cells); at degree 4 it
      does not (``benchmarks/bench_apply.py``, the ``cell_local`` table).
    * **Graded mesh**: with ``G = W^-1 k`` and ``Omega = w_i w_j w_k``,
      ``K_c = Omega (c1 G(x)I(x)I + I(x)(c2 G(x)I + c3 I(x)G))``, applied as
      one ``n1^2``-square GEMM per x-plane (y and z fused), one ``n1``-square
      GEMM per cell (x), an add and the ``Omega`` scale — the coefficients
      are folded into per-cell factor matrices, so ``cells=`` indexes those.
      ``2 (n1^2 + n1 + 1)`` FLOPs per value: 7 750 per cell-column at degree
      4 against 94 375 for the three dense Kronecker GEMMs it replaces
      (``tests/reference.reference_apply_cells``); the pure three-axis form
      (4 125) measured slower at every block size tried (DESIGN.md §9).

    Either way a complex (Bloch) block is multiplied through its ``float64``
    view — ``B`` complex columns are ``2B`` real ones to a real matrix — so
    ``np.matmul`` never casts the matrix to complex: half the GEMM FLOPs.

    Immutable after construction.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        kfrac: tuple[float, float, float] | None = None,
        ledger=None,
    ) -> None:
        self.mesh = mesh
        self.ledger = ledger
        w, khat = mesh.ref.weights1d, mesh.ref.stiff1d
        h = mesh.cell_sizes
        self._coef = np.stack(
            [
                h[:, 1] * h[:, 2] / (2.0 * h[:, 0]),
                h[:, 0] * h[:, 2] / (2.0 * h[:, 1]),
                h[:, 0] * h[:, 1] / (2.0 * h[:, 2]),
            ],
            axis=1,
        )  # (ncells, 3)
        self._uniform = bool(
            np.allclose(self._coef, self._coef[0], rtol=1e-13, atol=0.0)
        )
        if self._uniform:
            self._Kc = self._dense(self._coef[0])
        else:
            self._Kc = None
            # K_c = Omega (c1 G(x)I(x)I + c2 I(x)G(x)I + c3 I(x)I(x)G): the slow-axis
            # factor and the fused two-fast-axes factor, coefficients folded in
            G, eye = khat / w[:, None], np.eye(w.size)
            c = self._coef[:, :, None, None]
            self._Gx = c[:, 0] * G  # (ncells, n1, n1)
            self._Gyz = c[:, 1] * np.kron(G, eye) + c[:, 2] * np.kron(eye, G)
            self._omega = _kron3(w, w, w)[:, None]  # (npc, 1)
        self.phases = mesh.bloch_phases(kfrac) if kfrac is not None else None
        self.dtype = np.complex128 if self.phases is not None else np.float64

    @property
    def is_uniform(self) -> bool:
        return self._uniform

    def cell_matrix(self, c: int) -> np.ndarray:
        """Dense stiffness matrix of cell ``c`` (tests / inspection)."""
        return self._Kc if self._Kc is not None else self._dense(self._coef[c])

    def _dense(self, coef: np.ndarray) -> np.ndarray:
        """``c1 k(x)W(x)W + c2 W(x)k(x)W + c3 W(x)W(x)k`` as one dense matrix."""
        khat, dw = self.mesh.ref.stiff1d, np.diag(self.mesh.ref.weights1d)
        terms = ((khat, dw, dw), (dw, khat, dw), (dw, dw, khat))
        return sum(c * _kron3(*t) for c, t in zip(coef, terms))

    def _local(self, cells: np.ndarray | None):
        """Connectivity and Bloch phases of ``cells`` (all cells: ``None``)."""
        if cells is None:
            return self.mesh.conn, self.phases
        return self.mesh.conn[cells], None if self.phases is None else self.phases[cells]

    def gather(
        self,
        x_full: np.ndarray,
        workspace: Workspace | None = None,
        cells: np.ndarray | None = None,
    ) -> np.ndarray:
        """Gather full-node field(s) to (ncells, npc, B) with Bloch phases.

        ``cells`` restricts the gather to a subset of cells (one rank's
        share of a partition).  With a workspace the result is a pooled
        buffer — valid until the next ``gather`` on this thread.
        """
        X = x_full[:, None] if x_full.ndim == 1 else x_full
        conn, phases = self._local(cells)
        ws = workspace if workspace is not None else UNPOOLED
        dt = np.result_type(self.dtype, X.dtype)
        Xc = ws.get("stiff_Xc", (*conn.shape, X.shape[1]), dt)
        if X.dtype == dt:
            np.take(X, conn, axis=0, out=Xc)
        else:
            Xc[...] = X[conn]
        if phases is not None:
            Xc *= phases[:, :, None]
        return Xc

    def scatter_add(
        self, Yc: np.ndarray, out: np.ndarray, cells: np.ndarray | None = None
    ) -> np.ndarray:
        """``out += G^H Yc``, the adjoint of :meth:`gather` (conjugated Bloch
        phases included), by ``np.add.at`` in cell order: a rank-local
        partial sum has the accumulation order of its own cell list, which
        the mesh-wide ``ScatterMap`` cannot reproduce."""
        conn, phases = self._local(cells)
        if phases is not None:
            Yc = np.conj(phases)[:, :, None] * Yc
        np.add.at(out, conn.ravel(), Yc.reshape(-1, Yc.shape[-1]))
        return out

    @shape_contract(Xc=("ncells", "npc", "b"), returns=("ncells", "npc", "b"))
    def apply_cells(
        self,
        Xc: np.ndarray,
        workspace: Workspace | None = None,
        cells: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched cell GEMM: ``Y_c = K_c X_c`` over all cells at once.

        ``cells`` names the cells ``Xc`` was gathered from when it is a
        subset (graded meshes need their factor matrices).  With a workspace
        the returned array is a pooled buffer owned by the workspace —
        valid until the next ``apply_cells`` on this thread.  ``Xc`` is only
        read; a non-contiguous one is copied first.
        """
        ws = workspace if workspace is not None else UNPOOLED
        ncells, npc, B = Xc.shape
        Yc = ws.get("stiff_Yc", Xc.shape, Xc.dtype)
        # the cell matrix is real: a complex block is 2B real columns
        rdt = Xc.real.dtype
        X, Y = np.ascontiguousarray(Xc).view(rdt), Yc.view(rdt)
        if self._Kc is not None:
            np.matmul(self._Kc, X, out=Y)
        else:
            Gx, Gyz = self._Gx, self._Gyz
            if cells is not None:
                Gx, Gyz = Gx[cells], Gyz[cells]
            n1, Br = Gx.shape[-1], X.shape[-1]
            T = ws.get("stiff_Tc", X.shape, rdt)
            yz = (ncells, n1, n1 * n1, Br)  # y,z fused: one GEMM per x-plane
            np.matmul(Gyz[:, None], X.reshape(yz), out=Y.reshape(yz))
            x = (ncells, n1, n1 * n1 * Br)  # x: one GEMM per cell
            np.matmul(Gx, X.reshape(x), out=T.reshape(x))
            Y += T
            # Omega expanded over the columns: a contiguous pass, not npc*ncells
            # stride-0 inner loops of length Br
            omega = ws.get("stiff_omega", (npc, Br), rdt)
            omega[...] = self._omega
            Y *= omega
        if self.ledger is not None:
            self.ledger.add("cell_gemm", self.gemm_flops(ncells, B, Xc.dtype))
        return Yc

    def add_cells(self, x_full: np.ndarray, cells: np.ndarray, out: np.ndarray) -> None:
        """``out += K|cells @ x``: gather, cell GEMMs and scatter of a subset.

        The one kernel every rank backend runs on its share of the cells.
        """
        Yc = self.apply_cells(self.gather(x_full, cells=cells), cells=cells)
        self.scatter_add(Yc, out, cells)

    def apply_full(
        self, x_full: np.ndarray, workspace: Workspace | None = None
    ) -> np.ndarray:
        """``K @ x`` on the full node set (no boundary conditions).

        The real product (Poisson's residual, the one-electron integrals)
        scatters through the mesh's precompiled ``ScatterMap``; a Bloch one,
        which only tests ask for, through :meth:`add_cells` over all cells.
        With a workspace the result is a pooled buffer — valid until the
        next ``apply_full`` on the same thread.
        """
        squeeze = x_full.ndim == 1
        X = x_full[:, None] if squeeze else x_full
        dt = np.result_type(self.dtype, X.dtype)
        shape = (self.mesh.nnodes, X.shape[1])
        if workspace is None:
            out = np.zeros(shape, dtype=dt)
        else:
            out = workspace.zeros("stiff_out", shape, dt)
        if self.phases is not None:
            self.add_cells(X, np.arange(self.mesh.ncells), out)
        else:
            Yc = self.apply_cells(self.gather(X, workspace), workspace=workspace)
            self.mesh.scatter_map.add_to(Yc.reshape(-1, shape[1]), out)
        return out[:, 0] if squeeze else out

    def gemm_flops(self, ncells: int, B: int, dtype) -> int:
        """Closed-form FLOPs of :meth:`apply_cells` on ``ncells`` cells, ``B``
        columns — what the kernel executes, not the paper's dense model count
        (that is ``repro.hpc.flops.chebyshev_filter_flops``)."""
        npc = self.mesh.conn.shape[1]
        if self._Kc is not None:
            per_value = 2 * npc
        else:
            # the y,z GEMM (2 n1^2), the x GEMM (2 n1), the add and the Omega scale
            n1 = self.mesh.ref.weights1d.size
            per_value = 2 * (n1 * n1 + n1 + 1)
        # a real matrix times a complex block: 2B real columns
        ncols = (2 if np.issubdtype(dtype, np.complexfloating) else 1) * B
        return ncells * npc * ncols * per_value


class KSOperator:
    """Matrix-free Löwdin-orthonormalized Kohn-Sham Hamiltonian.

    Acts on *free* DoFs (Dirichlet boundary nodes eliminated):

        ``H~ x = D^{-1/2} (K/2) D^{-1/2} x + v * x  (+ B D_nl B^H x)``

    where ``v`` is the total effective potential sampled at the nodes (the
    GLL-diagonal mass makes the potential term exactly diagonal) and the
    last term is the separable nonlocal pseudopotential.  The nonlocal
    term, the ``ks_apply`` fault site and the diagonals live here once; the
    rest runs on an *engine* — :class:`~repro.fem.fdm.AxisKinetic` on the
    free block in this process, the potential folded into its last axis, or
    the cell-level stiffness product of a rank cluster
    (:class:`repro.hpc.DistributedKSOperator`) inside the Löwdin scaling,
    with the potential as a pass over the block.

    Parameters
    ----------
    mesh:
        The spectral-element mesh.
    kfrac:
        Optional reduced Bloch vector; nonzero components switch the operator
        (and wavefunctions) to complex arithmetic.
    ledger:
        Optional FLOP ledger (``repro.hpc.flops.FlopLedger``).
    workspace:
        Buffer pool for the apply path; a private enabled pool is created
        when omitted.  Pass ``Workspace(enabled=False)`` to reproduce the
        allocate-per-call behaviour (A/B benchmarking).
    ranks:
        Rank cluster (``VirtualCluster`` / ``ProcRankCluster``) to run the
        stiffness product on; it must have been built on the same ``mesh``
        and ``kfrac``.  Omitted: the in-process axis-factorised kernel.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        kfrac: tuple[float, float, float] | None = None,
        ledger=None,
        nonlocal_projectors=None,
        workspace: Workspace | None = None,
        ranks=None,
    ) -> None:
        self.mesh = mesh
        self._ranks = ranks
        self.workspace = workspace if workspace is not None else Workspace()
        self.kinetic = AxisKinetic(mesh, kfrac)
        self.dtype = self.kinetic.dtype
        if ranks is not None:
            self.stiff = ranks.stiff
            # the Löwdin scaling around the ranks' K, on the free rows
            self._dsf = np.ascontiguousarray(1.0 / np.sqrt(mesh.mass_diag[mesh.free]))
            self._half_dsf = 0.5 * self._dsf
        self._v_free = np.zeros(mesh.ndof, dtype=float)
        #: the kernel's last axis with the potential folded in (per instance:
        #: clones do not share it), rebuilt after set_potential
        self._last = None
        self.ledger = ledger
        self._nl_B = self._nl_D = None
        self._nl_top = 0.0
        if nonlocal_projectors:
            from repro.atoms.nonlocal_psp import projector_matrix

            B, D = projector_matrix(mesh, nonlocal_projectors)
            if B.shape[1]:
                self._nl_B, self._nl_D = B, D
                # B D B^H's top eigenvalue is G^1/2 D G^1/2's, G = B^H B, or 0
                w, U = np.linalg.eigh(B.conj().T @ B)
                Gh = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T
                top = np.linalg.eigvalsh((Gh * D) @ Gh)[-1]
                self._nl_top = max(0.0, float(top))

    @property
    def n(self) -> int:
        """Dimension of the operator (number of free DoFs)."""
        return self.mesh.ndof

    def set_potential(self, v_full: np.ndarray) -> None:
        """Set the effective potential from its full-node sampling."""
        if v_full.shape != (self.mesh.nnodes,):
            raise ValueError("potential must be sampled at all mesh nodes")
        self._v_free = np.ascontiguousarray(v_full[self.mesh.free])
        self._last = None

    @property
    def potential_free(self) -> np.ndarray:
        return self._v_free

    def spectral_upper_bound(self) -> float:
        """Weyl's bound on ``H~``'s spectrum: the kinetic's exact top eigenvalue
        + ``max(v)`` + the nonlocal term's; no apply, the same on every engine."""
        return self.kinetic.top_eigenvalue + float(self._v_free.max()) + self._nl_top

    def clone(self) -> "KSOperator":
        """Operator sharing all immutable state but owning its potential.

        The SCF gives the second spin channel of a k-point its own clone,
        so each channel's operator holds that channel's potential (and the
        kernel batch folded from it) rather than the last one set; the
        heavy pieces (axis matrices, nonlocal projectors, the thread-local
        workspace, the rank cluster) are shared.  A shared cluster
        serializes concurrent applies itself (the process backend holds a
        lock across begin/finish).
        """
        new = type(self).__new__(type(self))
        new.__dict__.update(self.__dict__)
        new._v_free = self._v_free.copy()
        new._last = None
        return new

    def close(self) -> None:
        """Release engine resources (idempotent; a no-op without ranks)."""
        if self._ranks is not None:
            self._ranks.close()

    def _lift(self, X: np.ndarray) -> np.ndarray:
        """``D^{-1/2} x`` expanded free -> full nodes, for the rank engines.

        The block is pooled (workspace-owned): valid until the next
        ``_lift`` on this thread.
        """
        Xb = X[:, None] if X.ndim == 1 else X
        ws = self.workspace
        rdt = np.result_type(self.dtype, Xb.dtype)
        # boundary rows stay zero by invariant
        full = ws.get(
            "ks_full", (self.mesh.nnodes, Xb.shape[1]), rdt, zero_on_create=True
        )
        t = ws.get("ks_t", Xb.shape, rdt)
        np.multiply(self._dsf[:, None], Xb, out=t)
        full[self.mesh.free] = t
        return full

    def _assemble(self, kx, X, out, scale=1.0, shift=0.0, minus=None):
        """:meth:`apply`'s term from the ranks' ``kx = K D^{-1/2} x``: block
        arithmetic in the operand order of ``tests/reference``'s recurrence,
        which the rank engines equal bit for bit."""
        Xb = X[:, None] if X.ndim == 1 else X
        ws = self.workspace
        yg = ws.get("ks_gather", Xb.shape, kx.dtype)
        np.take(kx, self.mesh.free, axis=0, out=yg)
        y = np.empty(Xb.shape, kx.dtype) if out is None else out.reshape(Xb.shape)
        np.multiply(self._half_dsf[:, None], yg, out=y)
        t = ws.get("ks_t", Xb.shape, y.dtype)
        np.multiply(self._v_free[:, None], Xb, out=t)
        y += t
        if self._nl_B is not None:
            y += self._nonlocal(Xb)
        if shift:
            np.multiply(shift, Xb, out=t)
            y -= t
        if scale != 1.0:
            y *= scale
        if minus is not None:
            np.multiply(minus[0], minus[1].reshape(Xb.shape), out=t)
            y -= t
        return self._deliver(y, X, out)

    def _nonlocal(self, Xb: np.ndarray) -> np.ndarray:
        """``B D B^H x``, the separable nonlocal term: two skinny GEMMs (a
        rank-k update); on ranks the projections are summed by one allreduce."""
        proj = self._nl_B.conj().T @ Xb
        if self._ranks is not None:
            proj = self._ranks.allreduce(proj)
        return self._nl_B @ (self._nl_D[:, None] * proj)

    def _blas_block(self, tag: str, A: np.ndarray, dtype, copy: bool = True):
        """``A`` if it is an aligned C-contiguous block of ``dtype`` — an f2py
        BLAS wrapper works on a *copy* of anything else, and an accumulate
        into it is lost — else a pooled block of its shape (workspace-owned:
        valid until the next ``apply`` on this thread) holding ``A`` if
        ``copy``."""
        if A.dtype == dtype and A.flags.c_contiguous and A.flags.aligned:
            return A
        block = self.workspace.get(tag, A.shape, dtype)
        if copy:
            block[...] = A
        return block

    def _deliver(self, y: np.ndarray, X: np.ndarray, out: np.ndarray | None):
        """The ``ks_apply`` fault site and the shape of the result."""
        if _faults._PLAN is not None:  # reprochaos site (no-op unarmed)
            _faults.fault_point("ks_apply", y)
        if out is not None:
            return out
        return y[:, 0] if X.ndim == 1 else y

    def apply(
        self, X: np.ndarray, out: np.ndarray | None = None, *,
        scale: float = 1.0, shift: float = 0.0,
        minus: tuple[float, np.ndarray] | None = None,
    ) -> np.ndarray:
        """``scale * (H~ - shift) X - beta * P`` on a block ``X`` of shape
        (ndof,) or (ndof, B), with ``minus = (beta, P)``: ``H~ X`` by
        default, one term of the Chebyshev recurrence with the keywords.

        ``out``, when given, receives the result (same shape as ``X``; it
        may share no memory with ``X`` or ``P``) — the recurrence rotates
        preallocated blocks through it.  In process the term is the axis
        kernel's three GEMMs and one ``axpy`` on the free block
        (:meth:`repro.fem.fdm.AxisKinetic.apply`, the potential folded into
        its last axis); on ranks it is block arithmetic after the join.
        Results do not depend on workspace/out usage.
        """
        if out is not None and (
            np.may_share_memory(out, X)
            or (minus is not None and np.may_share_memory(out, minus[1]))
        ):
            raise ValueError("out must not alias X or the subtracted block")
        if self._ranks is not None:
            return self.apply_finish(
                self.apply_begin(X), out=out, scale=scale, shift=shift, minus=minus
            )
        Xb = X[:, None] if X.ndim == 1 else X
        dt = np.result_type(self.dtype, Xb.dtype)
        if minus is not None:
            minus = minus[0], self._blas_block("ks_p", minus[1].reshape(Xb.shape), dt)
        if self._last is None:
            self._last = self.kinetic.fold(self._v_free)
        y = np.empty(Xb.shape, dt) if out is None else out.reshape(Xb.shape)
        yk = self._blas_block("ks_y", y, dt, copy=False)
        Xb = self._blas_block("ks_x", Xb, dt)
        self.kinetic.apply(Xb, yk, self._last, scale, shift, minus)
        if self._nl_B is not None:
            yk += scale * self._nonlocal(Xb)
        if yk is not y:
            y[...] = yk
        if self.ledger is not None:
            self.ledger.add("cell_gemm", self.kinetic.flops(Xb.shape[1], dt))
        return self._deliver(y, X, out)

    def apply_begin(self, X: np.ndarray):
        """Ship a block to the rank cluster: the handle of
        :meth:`apply_finish`.  The process backend returns at once, its
        workers computing until the join; the virtual one runs the product
        at the join."""
        full = self._lift(X)
        if self.ledger is not None:
            # forked rank workers cannot reach the ledger: charge their cell
            # GEMMs here, from the closed form the serial engine counts by
            self.ledger.add(
                "cell_gemm",
                self.stiff.gemm_flops(self.mesh.ncells, full.shape[1], full.dtype),
            )
        return X, self._ranks.apply_stiffness_begin(full)

    def apply_finish(self, handle, out: np.ndarray | None = None, **term):
        """Join :meth:`apply_begin`'s handle; ``term``: :meth:`apply`'s keywords."""
        X, pending = handle
        with trace_region(
            "Distributed-apply",
            nranks=self._ranks.nranks,
            nvec=1 if X.ndim == 1 else X.shape[1],
        ):
            kx = self._ranks.apply_stiffness_finish(pending)
        return self._assemble(kx, X, out, **term)

    def diagonal(self) -> np.ndarray:
        """Diagonal of ``H~`` (incl. the separable nonlocal contribution)."""
        out = self.kinetic_diagonal() + self._v_free
        if self._nl_B is not None:
            out = out + np.einsum("ip,p,ip->i", self._nl_B, self._nl_D, self._nl_B)
        return out

    def kinetic_diagonal(self) -> np.ndarray:
        """Diagonal of the Löwdin kinetic operator."""
        return self.kinetic.diagonal()

    def matrix(self) -> np.ndarray:
        """Dense matrix of ``H~`` — tests and small systems only."""
        n = self.n
        if n > 20000:
            raise MemoryError("dense KS matrix requested for a large mesh")
        eye = np.eye(n, dtype=self.dtype)
        return self.apply(eye)
