"""Distributed Kohn-Sham operator: the SCF kernels over a rank cluster.

:class:`DistributedKSOperator` *is* a
:class:`repro.fem.assembly.KSOperator` whose stiffness product runs on a
rank backend — :class:`repro.hpc.cluster.VirtualCluster` (simulated ranks,
metered traffic) or :class:`repro.hpc.procranks.ProcRankCluster` (real
forked ranks over shared memory, their interior cells computing under the
halo exchange) — through the owner-sum halo protocol.
Everything else (the Löwdin scaling, the potential and nonlocal terms,
``out=``, the workspace, the FLOP ledger, ``apply_begin`` /
``apply_finish``) is inherited, so the ChFES eigensolver runs unchanged.
The two backends are bitwise identical, which is how the paper's overlap
claim is validated at the eigensolver level: spectra (and SCF energies)
must match across backends bit for bit, and the serial FP64 spectrum to
well below the discretization error.  The FP32 halo of Sec 5.4.2 lives
on :class:`~repro.hpc.cluster.VirtualCluster` alone, which a caller hands
to ``KSOperator(mesh, ranks=...)`` directly.
"""

from __future__ import annotations

from repro.fem.assembly import KSOperator
from repro.fem.mesh import Mesh3D
from repro.fem.workspace import Workspace

from .cluster import VirtualCluster

__all__ = ["DistributedKSOperator", "RANK_BACKENDS"]

#: selectable rank backends (``repro info`` reports these)
RANK_BACKENDS = ("virtual", "proc")


def _make_cluster(backend: str, mesh, nranks, kfrac):
    if backend == "virtual":
        return VirtualCluster(mesh, nranks, kfrac=kfrac)
    if backend == "proc":
        from .procranks import ProcRankCluster

        return ProcRankCluster(mesh, nranks, kfrac=kfrac)
    raise ValueError(
        f"unknown rank backend {backend!r} (choose from {RANK_BACKENDS})"
    )


class DistributedKSOperator(KSOperator):
    """KSOperator whose stiffness runs on P (virtual or real) ranks."""

    def __init__(
        self,
        mesh: Mesh3D,
        nranks: int,
        kfrac: tuple[float, float, float] | None = None,
        backend: str = "virtual",
        ledger=None,
        nonlocal_projectors=None,
        workspace: Workspace | None = None,
    ) -> None:
        self.backend = backend
        super().__init__(
            mesh,
            kfrac=kfrac,
            ledger=ledger,
            nonlocal_projectors=nonlocal_projectors,
            workspace=workspace,
            ranks=_make_cluster(backend, mesh, nranks, kfrac),
        )

    # An own name for the inherited entry point: the benchmark ledger hooks
    # ``apply`` on this class and on the serial ``KSOperator`` separately
    # (tests/test_ledger_points.py holds the table to that).
    apply = KSOperator.apply

    @property
    def cluster(self):
        """The rank cluster (clones share it)."""
        return self._ranks

    @property
    def traffic(self):
        """Communication meter of the underlying cluster."""
        return self._ranks.traffic
