"""Process-level rank backend: real shared-memory halo exchange.

``repro.hpc.procranks`` promotes the domain-decomposed solver from
*simulated* ranks (:class:`repro.hpc.VirtualCluster`, one process, metered
traffic) to **real** ranks: P forked OS processes, pinned round-robin to
the allowed cores, moving halo payloads through named
``multiprocessing.shared_memory`` segments while their interior cells
compute — the one schedule the apply has.

Layout:

* :mod:`.arena` — :class:`SharedArena`, the one sanctioned home of
  ``SharedMemory`` creation (reprolint R017), leak-proof via finalizers;
* :mod:`.worker` — the per-rank plan and forked worker loop;
* :mod:`.cluster` — :class:`ProcRankCluster`, the drop-in
  ``VirtualCluster`` replacement selected with ``backend="proc"``.

The backend is bitwise-identical to the virtual cluster — the
partition-invariance suite asserts it down to the SCF energies.
"""

from .arena import SharedArena
from .cluster import ProcRankCluster
from .worker import RankPlan, build_plans

__all__ = ["ProcRankCluster", "RankPlan", "SharedArena", "build_plans"]
