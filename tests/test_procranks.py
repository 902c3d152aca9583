"""Process-level rank backend: bitwise parity, leaks, phase timings, pinning.

The contract under test (DESIGN.md sec 14): :class:`ProcRankCluster` is the
:class:`VirtualCluster` protocol executed by real forked rank processes
over shared memory, and it is *bitwise* equal to the virtual backend at
the same partition, while every shared segment is reclaimed on normal
exit, on exceptions, and after a worker is killed mid-fleet.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.fem.assembly import CellStiffness
from repro.fem.mesh import uniform_mesh
from repro.hpc.cluster import VirtualCluster
from repro.hpc.procranks import ProcRankCluster, SharedArena
from repro.hpc.procranks import cluster as C
from repro.obs import set_enabled, trace_region
from repro.resilience import ResilienceError
from repro.tools import sanitize


def _mesh(cells=3, degree=3):
    return uniform_mesh((4.0,) * 3, (cells,) * 3, degree=degree)


# ---------------------------------------------------------------------------
# bitwise parity with the virtual cluster
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_apply_bitwise_matches_virtual(nranks):
    mesh = _mesh()
    x = np.random.default_rng(0).normal(size=(mesh.nnodes, 3))
    vc = VirtualCluster(mesh, nranks)
    ref = vc.apply_stiffness(x)
    ref1d = vc.apply_stiffness(x[:, 0])  # B=1 GEMMs round differently
    with ProcRankCluster(mesh, nranks) as pc:
        y = pc.apply_stiffness(x)
        y1d = pc.apply_stiffness(x[:, 0])
    assert np.array_equal(y, ref)  # bitwise, not allclose
    assert np.array_equal(y1d, ref1d)
    assert y1d.ndim == 1  # 1-D in, 1-D out (squeeze contract)


def test_traffic_metering_matches_virtual():
    mesh = _mesh()
    x = np.random.default_rng(3).normal(size=(mesh.nnodes, 4))
    vc = VirtualCluster(mesh, 4)
    vc.apply_stiffness(x)
    with ProcRankCluster(mesh, 4) as pc:
        pc.apply_stiffness(x)
        assert pc.traffic.p2p_bytes == vc.traffic.p2p_bytes
        assert pc.traffic.p2p_messages == vc.traffic.p2p_messages


def test_allreduce_roundtrip_and_metering():
    mesh = _mesh(cells=2, degree=2)
    a = np.random.default_rng(4).normal(size=(7, 5))
    vc = VirtualCluster(mesh, 4)
    expected = vc.allreduce(a)
    with ProcRankCluster(mesh, 4) as pc:
        out = pc.allreduce(a)
        assert np.array_equal(out, expected)
        assert out.shape == a.shape and out.dtype == a.dtype
        assert pc.traffic.allreduce_calls == 1
        assert pc.traffic.allreduce_bytes == vc.traffic.allreduce_bytes


# ---------------------------------------------------------------------------
# arena growth (remap) and fallback paths
# ---------------------------------------------------------------------------
def test_remap_grows_block_capacity_bitwise():
    mesh = _mesh()
    x = np.random.default_rng(5).normal(size=(mesh.nnodes, 12))
    vc = VirtualCluster(mesh, 2)
    ref = vc.apply_stiffness(x)
    ref2 = vc.apply_stiffness(x[:, :2])  # B=2 GEMMs round differently
    with ProcRankCluster(mesh, 2, block_capacity=2) as pc:
        assert np.array_equal(pc.apply_stiffness(x[:, :2]), ref2)
        y = pc.apply_stiffness(x)  # B=12 > capacity: remap mid-flight
        assert np.array_equal(y, ref)
        assert pc._gen >= 1  # a new segment generation was minted
        assert np.array_equal(pc.apply_stiffness(x), ref)  # still live
        uid = pc.arena.uid
    assert SharedArena.live_segment_names(uid) == []  # old gens dropped too


def test_unsupported_dtype_falls_back_in_process():
    """Complex blocks take the in-process protocol (bitwise by shared code)."""
    mesh = _mesh(cells=2, degree=2)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(mesh.nnodes, 2)) + 1j * rng.normal(size=(mesh.nnodes, 2))
    ref = VirtualCluster(mesh, 2).apply_stiffness(x)
    with ProcRankCluster(mesh, 2) as pc:
        y = pc.apply_stiffness(x)
    assert np.array_equal(y, ref)


# ---------------------------------------------------------------------------
# leak guard: /dev/shm must be clean however the fleet dies
# ---------------------------------------------------------------------------
def test_leak_guard_normal_exit():
    mesh = _mesh(cells=2, degree=2)
    with ProcRankCluster(mesh, 2) as pc:
        pc.apply_stiffness(np.ones((mesh.nnodes, 2)))
        uid = pc.arena.uid
        assert SharedArena.live_segment_names(uid)  # live while open
    assert SharedArena.live_segment_names(uid) == []


def test_leak_guard_exception_unwind():
    mesh = _mesh(cells=2, degree=2)
    uid = None
    with pytest.raises(RuntimeError, match="mid-use"):
        with ProcRankCluster(mesh, 2) as pc:
            pc.apply_stiffness(np.ones((mesh.nnodes, 2)))
            uid = pc.arena.uid
            raise RuntimeError("mid-use")
    assert SharedArena.live_segment_names(uid) == []


def test_leak_guard_killed_worker():
    mesh = _mesh(cells=2, degree=2)
    pc = ProcRankCluster(mesh, 2)
    try:
        uid = pc.arena.uid
        pc._workers[0].terminate()
        pc._workers[0].join(timeout=10.0)
        with pytest.raises(ResilienceError, match="died|unresponsive|failed"):
            pc.apply_stiffness(np.ones((mesh.nnodes, 2)))
    finally:
        pc.close()
    assert SharedArena.live_segment_names(uid) == []
    assert not any(p.is_alive() for p in pc._workers)


def test_arena_finalizer_backstop():
    """Even an un-closed arena unlinks its segments at GC."""
    arena = SharedArena()
    arena.create("probe", (16,), np.float64)
    uid = arena.uid
    assert SharedArena.live_segment_names(uid)
    del arena  # finalizer fires
    assert SharedArena.live_segment_names(uid) == []


def test_arena_attach_requires_uid_and_no_create():
    with pytest.raises(ValueError):
        SharedArena(create=False)
    with SharedArena() as owner:
        owner.create("t", (4,), np.float64)[...] = 3.0
        ro = SharedArena(uid=owner.uid, create=False)
        view = ro.attach("t", (4,), np.float64)
        assert np.array_equal(view, [3.0] * 4)
        with pytest.raises(RuntimeError):
            ro.create("t2", (4,), np.float64)
        ro.close()  # attached side never unlinks
        assert SharedArena.live_segment_names(owner.uid)


# ---------------------------------------------------------------------------
# measured phases and worker pinning
# ---------------------------------------------------------------------------
def test_phase_report_populated():
    mesh = _mesh()
    prev = set_enabled(True)
    try:
        with ProcRankCluster(mesh, 2) as pc, trace_region("applies") as span:
            for _ in range(3):
                pc.apply_stiffness(np.ones((mesh.nnodes, 4)))
            rep = pc.phase_report()
    finally:
        set_enabled(prev)
    assert rep["applies"] == 3
    assert rep["nranks"] == 2
    assert rep["apply_total_s"] > 0.0
    assert 0.0 <= rep["halo_wait_fraction"] <= 1.0
    for name in ("boundary_s", "interior_s", "halo_wait_s", "recv_s"):
        assert len(rep["per_rank"][name]) == 2
        assert all(v >= 0.0 for v in rep["per_rank"][name])
        # the same worker phases reach the open span as proc_*_s counters
        assert span.counters[f"proc_{name}"] == pytest.approx(rep[name])


def test_pin_workers_round_robins_over_allowed_cores(monkeypatch):
    calls = {}
    monkeypatch.setattr(C.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(
        C.os, "sched_setaffinity",
        lambda pid, cores: calls.__setitem__(pid, set(cores)),
        raising=False,
    )
    placed = C.pin_workers([101, 102, 103, 104])
    assert placed == {101: 0, 102: 1, 103: 2, 104: 0}
    assert calls == {101: {0}, 102: {1}, 103: {2}, 104: {0}}


def test_pin_workers_skips_single_core_hosts(monkeypatch):
    monkeypatch.setattr(C.os, "sched_getaffinity", lambda pid: {0})
    died = []
    monkeypatch.setattr(
        C.os, "sched_setaffinity",
        lambda pid, cores: died.append(pid), raising=False,
    )
    assert C.pin_workers([101, 102]) == {}
    assert died == []  # the guard fired before any syscall


def test_cluster_records_pin_placements(monkeypatch):
    """The fleet pins its real worker pids (simulated multi-core host)."""
    placements = {}
    monkeypatch.setattr(C.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(
        C.os, "sched_setaffinity",
        lambda pid, cores: placements.__setitem__(pid, set(cores)),
        raising=False,
    )
    mesh = _mesh(cells=2, degree=2)
    with ProcRankCluster(mesh, 2) as pc:
        pids = [p.pid for p in pc._workers]
        assert pc.pinned == {pids[0]: 0, pids[1]: 1}
        assert placements == {pids[0]: {0}, pids[1]: {1}}
        # pinned or not, the fleet still computes
        x = np.random.default_rng(0).normal(size=mesh.nnodes)
        assert np.all(np.isfinite(pc.apply_stiffness(x)))


# ---------------------------------------------------------------------------
# SCF-level parity and the sanitizer
# ---------------------------------------------------------------------------
def _scf_energy(backend, nranks, max_iterations=6):
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions

    config = AtomicConfiguration(["H", "H"], [[0.0, 0.0, 0.0], [1.4, 0.0, 0.0]])
    calc = DFTCalculation(
        config, padding=6.0, cells_per_axis=3, degree=3, nstates=4,
        options=SCFOptions(
            max_iterations=max_iterations, backend=backend, nranks=nranks
        ),
    )
    with calc:
        res = calc.run()
    return float(res.energy)


def test_scf_bitwise_proc_vs_virtual():
    e_virtual = _scf_energy("virtual", 2)
    e_proc = _scf_energy("proc", 2)
    assert e_proc == e_virtual  # bitwise across backends
    assert SharedArena.live_segment_names() == []


def test_scf_partition_invariance_across_rank_counts():
    """Across P the energies agree to discretization noise (not bitwise:
    different partitions legitimately round the owner-sum differently)."""
    energies = [_scf_energy("proc", p) for p in (1, 2)]
    assert energies[0] == pytest.approx(energies[1], abs=1e-9)
    assert SharedArena.live_segment_names() == []


def _he_mesh():
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core.ksdft import auto_mesh

    return auto_mesh(
        AtomicConfiguration(["He"], [[0.0, 0.0, 0.0]]),
        padding=6.0, cells_per_axis=3, degree=2,
    )


def _he_scf(backend, projectors=False):
    """3 SCF steps of He on one mesh: (energy, cell_gemm FLOPs charged)."""
    from repro.atoms.nonlocal_psp import model_projectors
    from repro.core import DFTCalculation, SCFOptions
    from repro.hpc.flops import FlopLedger

    mesh, config = _he_mesh()
    ledger = FlopLedger()
    calc = DFTCalculation(
        config, mesh=mesh, nstates=4, ledger=ledger,
        options=SCFOptions(max_iterations=3, backend=backend, nranks=2),
        nonlocal_projectors=model_projectors(config) if projectors else None,
    )
    with calc:
        res = calc.run()
    return float(res.energy), ledger["cell_gemm"].flops_total


def test_cell_gemm_flops_charged_on_every_backend():
    """``cell_gemm`` is the stiffness-product GEMM FLOPs of whichever engine
    ran, from the closed form that engine executes: three axis GEMMs in
    process, cell GEMMs on ranks (charged in the parent — forked workers
    cannot reach the ledger) and in Poisson's residual check."""
    from repro.fem.assembly import CellStiffness

    flops = {b: _he_scf(b)[1] for b in ("serial", "virtual", "proc")}
    mesh, _ = _he_mesh()
    # 424 Hamiltonian columns and Poisson's 8 in three SCF steps (the filter
    # window's bound is closed-form: no Lanczos vectors)
    per_cell_column = CellStiffness(mesh).gemm_flops(1, 1, np.float64)
    poisson = 8 * mesh.ncells * per_cell_column
    assert flops["serial"] == 424 * 2 * sum(mesh.fdm.shape) * mesh.ndof + poisson
    assert flops["virtual"] == flops["proc"] == 424 * mesh.ncells * per_cell_column + poisson


def test_spectral_upper_bound_bounds_the_dense_spectrum_on_every_backend():
    """Weyl's bound — the kinetic's exact top eigenvalue, ``max(v)`` and the
    projector term's — is above the dense top eigenvalue with and without
    projectors, and the same bits on every engine."""
    from repro.atoms.nonlocal_psp import model_projectors
    from repro.fem.assembly import KSOperator
    from repro.hpc.distributed import DistributedKSOperator

    mesh, config = _he_mesh()
    v = config.external_potential(mesh.node_coords)
    bounds = {}
    for projs in (None, model_projectors(config)):
        ops = [KSOperator(mesh, nonlocal_projectors=projs)] + [
            DistributedKSOperator(mesh, 2, backend=b, nonlocal_projectors=projs)
            for b in ("virtual", "proc")
        ]
        try:
            for op in ops:
                op.set_potential(v)
            b = {op.spectral_upper_bound() for op in ops}
            assert len(b) == 1  # bitwise equal across the three engines
            (bounds[projs is not None],) = b
            assert bounds[projs is not None] >= np.linalg.eigvalsh(ops[0].matrix())[-1]
        finally:
            for op in ops:
                op.close()
    # the projector term only ever raises the bound
    assert bounds[True] >= bounds[False]
    assert SharedArena.live_segment_names() == []


def test_mg32_backends_agree():
    """The ledger's Mg32 crystal at Gamma: the in-process axis kernel and the
    two rank engines take the same SCF path — same iteration count, ranks
    bitwise equal, serial at their energy to rounding."""
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions
    from repro.materials.lattice import hcp_orthorhombic, supercell

    lattice, symbols, frac = hcp_orthorhombic()
    cell = supercell(lattice, symbols, frac, (2, 2, 2))
    config = AtomicConfiguration(
        list(cell.symbols), cell.positions, lattice=cell.lattice, pbc=cell.pbc
    )
    runs = {}
    for backend in ("serial", "virtual", "proc"):
        calc = DFTCalculation(
            config, degree=3, cells_per_axis=(3, 5, 5),
            options=SCFOptions(temperature=5e-3, backend=backend, nranks=2),
        )
        with calc:
            res = calc.run()
        assert res.converged
        runs[backend] = (int(res.n_iterations), float(res.energy))
    assert SharedArena.live_segment_names() == []
    assert runs["virtual"] == runs["proc"]  # bitwise
    assert runs["serial"][0] == runs["virtual"][0] == 8
    assert abs(runs["serial"][1] - runs["virtual"][1]) <= 1e-10


def test_nonlocal_projectors_run_on_every_backend():
    """The separable projector term is the operator's, whatever engine runs
    the stiffness: rank backends bitwise equal and at the serial energy to
    owner-sum rounding."""
    e_serial, _ = _he_scf("serial", projectors=True)
    e_local, _ = _he_scf("serial")
    assert abs(e_serial - e_local) > 1e-3  # the projectors really act
    e_virtual, _ = _he_scf("virtual", projectors=True)
    assert e_virtual == pytest.approx(e_serial, abs=1e-10)
    e_proc, _ = _he_scf("proc", projectors=True)
    assert e_proc == e_virtual  # bitwise
    assert SharedArena.live_segment_names() == []


def test_sanitizer_clean_on_proc_apply():
    """REPRO_SANITIZE write windows see no races in a multi-rank run."""
    mesh = _mesh()
    sanitize.arm()
    try:
        with ProcRankCluster(mesh, 2) as pc:
            x = np.random.default_rng(8).normal(size=(mesh.nnodes, 4))
            for _ in range(2):
                pc.apply_stiffness(x)
            pc.allreduce(np.ones(32))
        # windows all closed: versions advanced, none left open
        san = sanitize.state()
        assert san is not None
        assert not san._windows
    finally:
        sanitize.disarm()


# ---------------------------------------------------------------------------
# the serve / CLI surface
# ---------------------------------------------------------------------------
def test_scheduler_policy_carries_backend(tmp_path):
    from repro.serve.jobs import ProbeJobSpec
    from repro.serve.queue import Job
    from repro.serve.scheduler import Scheduler, SchedulerPolicy

    with pytest.raises(ValueError, match="backend"):
        SchedulerPolicy(backend="mpi")
    policy = SchedulerPolicy(total_ranks=4, backend="proc")
    sched = Scheduler(policy, tmp_path)
    job = Job(job_id=1, spec=ProbeJobSpec(size=8, iters=1, seed=0))
    sched.submit(job)
    dispatched = sched.next_dispatch(now=0.0)
    assert dispatched is job
    ctx = sched.slice_context(job)
    assert ctx.backend == "proc"
    assert ctx.ranks == getattr(job.spec, "ranks", 1)
    sched.release(job)


def test_cli_info_reports_backends(capsys, monkeypatch):
    from repro.__main__ import main

    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "backends:" in out
    assert "proc" in out and "virtual" in out and "serial" in out
    assert f"host cores: {os.cpu_count() or 1}" in out
    # the rank default is SCFOptions.nranks (and --ranks), whatever the host
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "host cores: 8; default rank count: 2)" in out


def test_cli_scf_proc_backend(capsys):
    from repro.__main__ import main

    rc = main([
        "scf", "H2", "--degree", "2", "--cells", "3",
        "--max-scf", "3", "--backend", "proc", "--ranks", "2",
    ])
    assert rc in (0, 1)  # 3 iterations won't converge; must not crash
    assert "H2" in capsys.readouterr().out
    assert SharedArena.live_segment_names() == []
