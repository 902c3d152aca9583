"""repro.serve: job model, queue, scheduler, cache, server, CLI, bench.

Covers the serve subsystem end to end — spec canonicalization and
content addressing, the job state machine, priority/EDF/rank-fit queue
ordering, rank budgets, the self-verifying result cache, cache hits
served without a solver invocation, duplicate coalescing, preemptive
time slicing with bit-for-bit SCF resume and cached replay, retry failure
routing, deadline expiry, cancellation, a multi-worker run under the
armed race sanitizer, the ``python -m repro serve`` CLI, the dynamic
``info`` command listing, and the ``scf --checkpoint`` -> ``resume``
metadata round trip.
"""

import json
import pathlib
import re

import pytest

from repro.resilience import ResilienceError, RetryPolicy
from repro.serve import (
    JOB_TYPES,
    RUNNERS,
    CacheStats,
    Job,
    JobQueue,
    JobState,
    JobStateError,
    ProbeJobSpec,
    RankBudget,
    ResultCache,
    SCFJobSpec,
    SchedulerPolicy,
    ServeRequest,
    canonical_json,
    probe_load,
    run_jobs,
    run_slice,
    scf_load,
    spec_from_dict,
)
from repro.serve.runners import SliceContext, SliceOutcome
from repro.tools import sanitize

REPO = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# job model: canonical serialization + stable content addresses
def test_job_key_is_stable_and_order_insensitive():
    a = SCFJobSpec(molecule="H2", degree=3, cells=3)
    b = SCFJobSpec(cells=3, degree=3, molecule="H2")
    assert a == b
    assert a.job_key() == b.job_key()
    assert re.fullmatch(r"[0-9a-f]{64}", a.job_key())
    # any parameter change moves the address
    assert SCFJobSpec(molecule="H2", degree=4).job_key() != a.job_key()


def test_canonical_json_normalizes_tuples_and_sorts_keys():
    blob = canonical_json({"b": (1, 2), "a": [(3,)]})
    assert blob == '{"a":[[3]],"b":[1,2]}'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


@pytest.mark.parametrize("kind", sorted(JOB_TYPES))
def test_spec_round_trip_preserves_key(kind):
    spec = JOB_TYPES[kind]()
    back = spec_from_dict(spec.to_dict())
    assert back == spec
    assert back.job_key() == spec.job_key()
    assert spec.to_dict()["schema"] == "repro-serve-job/1"


def test_spec_from_dict_rejects_bad_envelopes():
    good = SCFJobSpec().to_dict()
    with pytest.raises(ValueError, match="schema"):
        spec_from_dict({**good, "schema": "repro-serve-job/9"})
    with pytest.raises(ValueError, match="kind"):
        spec_from_dict({**good, "kind": "nope"})
    with pytest.raises(ValueError, match="parameters"):
        spec_from_dict(
            {**good, "params": {**good["params"], "bogus": 1}}
        )


def test_spec_validation_rejects_bad_physics():
    with pytest.raises(ValueError, match="molecule"):
        SCFJobSpec(molecule="Unobtainium").validate()
    with pytest.raises(ValueError, match="xc"):
        SCFJobSpec(xc="b3lyp").validate()
    with pytest.raises(ValueError, match="ranks"):
        ProbeJobSpec(ranks=0).validate()
    with pytest.raises(ValueError, match="max_scf"):
        SCFJobSpec(max_scf=0).validate()


# ---------------------------------------------------------------------------
# state machine
def test_job_state_machine_enforces_transition_table():
    job = Job(job_id=1, spec=ProbeJobSpec())
    assert job.state is JobState.QUEUED
    job.transition(JobState.RUNNING)
    job.transition(JobState.PREEMPTED)
    job.transition(JobState.RUNNING)
    job.transition(JobState.DONE)
    assert job.state.terminal
    with pytest.raises(JobStateError, match="illegal transition"):
        job.transition(JobState.RUNNING)


def test_queued_job_can_complete_without_running():
    # cache hits and coalesced duplicates go QUEUED -> DONE directly
    job = Job(job_id=2, spec=ProbeJobSpec())
    job.transition(JobState.DONE)
    with pytest.raises(JobStateError):
        Job(job_id=3, spec=ProbeJobSpec(), state=JobState.DONE).transition(
            JobState.QUEUED
        )


# ---------------------------------------------------------------------------
# queue ordering
def _job(jid, *, priority=0, deadline=None, submitted=0.0, ranks=1):
    return Job(
        job_id=jid,
        spec=ProbeJobSpec(seed=jid, ranks=ranks),
        priority=priority,
        deadline=deadline,
        submitted_at=submitted,
    )


def test_queue_orders_by_priority_then_deadline_then_arrival():
    q = JobQueue()
    q.push(_job(1, priority=2))
    q.push(_job(2, priority=0, deadline=9.0))
    q.push(_job(3, priority=0, deadline=1.0))
    q.push(_job(4, priority=0))  # no deadline: after all deadlined peers
    q.push(_job(5, priority=0))
    order = [q.pop_dispatchable(8).job_id for _ in range(5)]
    assert order == [3, 2, 4, 5, 1]
    assert q.pop_dispatchable(8) is None


def test_queue_skips_wide_jobs_that_do_not_fit():
    q = JobQueue()
    q.push(_job(1, ranks=4))
    q.push(_job(2, ranks=1))
    assert q.pop_dispatchable(2).job_id == 2  # narrow overtakes
    assert q.pop_dispatchable(2) is None  # wide still does not fit
    wide = q.pop_dispatchable(4)
    assert wide.job_id == 1  # and kept its place
    assert len(q) == 0


def test_queue_with_no_free_rank_leaves_the_heap_alone(monkeypatch):
    """Nothing fits in zero ranks: the heap is not popped and re-pushed (an
    O(n log n) reshuffle per dispatch attempt while the fleet is busy)."""
    import repro.serve.queue as queue_mod

    def build():
        q = JobQueue()
        for jid, prio, deadline in ((1, 2, None), (2, 0, 9.0), (3, 0, 1.0), (4, 0, None)):
            q.push(_job(jid, priority=prio, deadline=deadline))
        return q

    q, untouched = build(), build()
    before = list(q._heap)
    pops = []
    real_pop = queue_mod.heapq.heappop
    monkeypatch.setattr(
        queue_mod.heapq, "heappop", lambda h: pops.append(1) or real_pop(h)
    )
    assert q.pop_dispatchable(0) is None
    assert pops == [] and q._heap == before
    monkeypatch.undo()
    order = [q.pop_dispatchable(8).job_id for _ in range(4)]
    assert order == [untouched.pop_dispatchable(8).job_id for _ in range(4)]


def test_queue_drops_stale_entries_lazily():
    q = JobQueue()
    job = _job(1)
    q.push(job)
    job.transition(JobState.RUNNING)  # e.g. dispatched via a fresher entry
    assert q.pop_dispatchable(8) is None
    assert len(q) == 0


def test_requeued_preempted_job_goes_behind_equal_priority_peers():
    q = JobQueue()
    first, second = _job(1), _job(2)
    q.push(first)
    q.push(second)
    got = q.pop_dispatchable(8)
    assert got is first
    got.transition(JobState.RUNNING)
    got.transition(JobState.PREEMPTED)
    q.push(got)  # new seq: round-robin behind job 2
    assert q.pop_dispatchable(8) is second


# ---------------------------------------------------------------------------
# rank budget
def test_rank_budget_allocates_and_releases_explicit_ids():
    budget = RankBudget(4)
    a = budget.allocate(3)
    assert a == (0, 1, 2) and budget.free == 1
    assert budget.allocate(2) is None  # does not fit
    b = budget.allocate(1)
    assert b == (3,) and budget.free == 0
    budget.release(a)
    assert budget.free == 3
    with pytest.raises(ValueError, match="not allocated"):
        budget.release(a)  # double release
    with pytest.raises(ValueError):
        budget.allocate(0)


# ---------------------------------------------------------------------------
# result cache
def test_cache_round_trip_and_self_verification(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ProbeJobSpec(seed=11)
    assert cache.get(spec) is None
    path = cache.put(spec, {"kind": "probe", "trace": 1.25})
    assert path.name == f"{spec.job_key()}.json"
    assert spec in cache and len(cache) == 1
    # a fresh cache instance reads it back from disk and verifies it
    cold = ResultCache(tmp_path)
    assert cold.get(spec) == {"kind": "probe", "trace": 1.25}
    envelope = json.loads(path.read_text())
    assert envelope["schema"] == "repro-serve-cache/2"
    assert envelope["tree"]["spec"] == spec.to_dict()
    assert cache.stats.hits == 0 and cache.stats.misses == 1
    assert cold.stats.hit_rate == 1.0


def test_cache_treats_tampered_entries_as_misses(tmp_path):
    """The content address is the cache's own check, on top of the artifact
    envelope's (``test_artifacts.py``): an entry that verifies but was filed
    under another spec's key is a miss, not that spec's result."""
    cache = ResultCache(tmp_path)
    spec = ProbeJobSpec(seed=12)
    path = cache.put(spec, {"kind": "probe", "trace": 0.5})
    other = cache.put(ProbeJobSpec(seed=13), {"kind": "probe", "trace": 9.0})
    path.write_bytes(other.read_bytes())  # a valid entry, at the wrong address
    cold = ResultCache(tmp_path)
    assert cold.get(spec) is None
    assert cold.stats.corrupt == 1


def test_cache_stats_dict_shape():
    stats = CacheStats(hits=3, misses=1, puts=1)
    d = stats.as_dict()
    assert d["hit_rate"] == pytest.approx(0.75)
    assert set(d) == {"hits", "misses", "puts", "corrupt", "hit_rate"}


# ---------------------------------------------------------------------------
# server end-to-end
def _counting_probe(monkeypatch):
    """Wrap the probe runner with an invocation counter."""
    calls = []
    original = RUNNERS["probe"]

    def counting(spec, ctx):
        calls.append(spec.job_key())
        return original(spec, ctx)

    monkeypatch.setitem(RUNNERS, "probe", counting)
    return calls


def test_server_completes_probe_load_and_coalesces(monkeypatch, tmp_path):
    calls = _counting_probe(monkeypatch)
    requests = probe_load(40, distinct=8, seed=5)
    report = run_jobs(
        requests, workdir=tmp_path, workers=4,
        policy=SchedulerPolicy(total_ranks=4),
    )
    assert [j.state for j in report.jobs] == [JobState.DONE] * 40
    assert report.stats.completed == 40 and report.stats.failed == 0
    # the runner executed once per unique spec, never per request: every
    # duplicate was either coalesced onto an in-flight primary or served
    # from the cache (which of the two is a scheduling race — the sum isn't)
    assert len(calls) == len(set(calls)) == 8
    assert report.stats.cache_hits + report.stats.coalesced == 32
    # identical specs produced bitwise-identical payload checksums
    by_key = {}
    for j in report.jobs:
        by_key.setdefault(j.spec.job_key(), set()).add(
            j.result["checksum"]
        )
    assert all(len(v) == 1 for v in by_key.values())
    stats = report.stats
    assert stats.latency_percentile(0.99) >= stats.latency_percentile(0.50) >= 0
    # the same stream again: every request is a hit, no solver runs
    warm = run_jobs(
        requests, workdir=tmp_path, workers=4,
        policy=SchedulerPolicy(total_ranks=4),
    )
    assert warm.stats.cache_hits == 40 and warm.stats.slices == 0
    assert len(calls) == 8
    assert [j.result for j in warm.jobs] == [j.result for j in report.jobs]


def test_duplicate_inflight_specs_coalesce_onto_primary(
    monkeypatch, tmp_path
):
    import asyncio
    import threading

    gate = threading.Event()
    original = RUNNERS["probe"]
    calls = []

    def gated(spec, ctx):
        calls.append(spec.job_key())
        gate.wait(timeout=30)
        return original(spec, ctx)

    monkeypatch.setitem(RUNNERS, "probe", gated)

    async def scenario():
        from repro.serve import SimulationServer

        async with SimulationServer(tmp_path) as server:
            spec = ProbeJobSpec(seed=77)
            primary = await server.submit(spec)
            # the primary is now blocked inside the gated runner; the
            # duplicate MUST coalesce (it cannot be a cache hit yet)
            follower = await server.submit(spec)
            assert follower.coalesced_into == primary.job_id
            assert follower in primary.followers
            gate.set()
            await server.wait(primary)
            await server.wait(follower)
            return primary, follower, server.stats.coalesced

    primary, follower, coalesced = asyncio.run(scenario())
    assert len(calls) == 1  # one solver execution for two requests
    assert coalesced == 1
    assert primary.state is JobState.DONE
    assert follower.state is JobState.DONE
    assert follower.result == primary.result
    assert follower.latency is not None


def test_cache_hit_serves_repeat_without_solver(monkeypatch, tmp_path):
    calls = _counting_probe(monkeypatch)
    spec = ProbeJobSpec(seed=42)
    first = run_jobs([ServeRequest(spec)], workdir=tmp_path)
    assert len(calls) == 1 and first.jobs[0].state is JobState.DONE
    # same workdir -> same content-addressed cache: no runner invocation
    cache = ResultCache(tmp_path / "cache")
    second = run_jobs([ServeRequest(spec)], workdir=tmp_path, cache=cache)
    assert len(calls) == 1  # still one: served from cache
    job = second.jobs[0]
    assert job.state is JobState.DONE and job.cache_hit
    assert job.result == first.jobs[0].result
    assert second.stats.cache_hits == 1 and second.stats.slices == 0


def test_failed_job_routes_through_retry_policy(monkeypatch, tmp_path):
    attempts = []

    def flaky(spec, ctx):
        attempts.append(1)
        if len(attempts) < 3:
            raise RuntimeError("transient scatter loss")
        return SliceOutcome(
            "done", payload={"kind": "probe", "ok": True}, iterations=1
        )

    monkeypatch.setitem(RUNNERS, "probe", flaky)
    report = run_jobs(
        [ServeRequest(ProbeJobSpec(seed=1))],
        workdir=tmp_path,
        retry_policy=RetryPolicy(max_retries=2),
    )
    assert report.jobs[0].state is JobState.DONE  # recovered on retry 2
    assert len(attempts) == 3

    attempts.clear()
    hopeless = run_jobs(
        [ServeRequest(ProbeJobSpec(seed=2))],
        workdir=tmp_path,
        retry_policy=RetryPolicy(max_retries=1),
    )
    job = hopeless.jobs[0]
    assert job.state is JobState.FAILED
    assert "serve:probe" in job.error and "transient scatter loss" in job.error
    assert len(attempts) == 2  # budget exhausted, structured failure


def test_damaged_checkpoint_fails_the_job_in_one_attempt(monkeypatch, tmp_path):
    """A torn checkpoint is the same bytes on every attempt: the slice that
    resumes from it runs once, not ``max_retries + 1`` times, and the job
    fails naming the file and what is wrong with it."""
    import pathlib

    resumed_from = []
    original = RUNNERS["scf"]

    def tearing(spec, ctx):
        resumed_from.append(ctx.resume_from)
        outcome = original(spec, ctx)
        if outcome.checkpoint is not None:  # preempted: tear what comes next
            ckpt = pathlib.Path(outcome.checkpoint)
            ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        return outcome

    monkeypatch.setitem(RUNNERS, "scf", tearing)
    report = run_jobs(
        [ServeRequest(SCFJobSpec(molecule="H2", degree=2, cells=3, max_scf=40))],
        workdir=tmp_path,
        policy=SchedulerPolicy(total_ranks=1, slice_iterations=2),
        retry_policy=RetryPolicy(max_retries=2),
    )
    job = report.jobs[0]
    assert job.state is JobState.FAILED
    # one good slice, then ONE attempt at the torn file
    assert resumed_from == [None, resumed_from[1]] and resumed_from[1] is not None
    assert job.error.startswith("[serve:scf] ")
    assert resumed_from[1] in job.error and "truncated" in job.error
    assert "attempts" not in job.error


def test_runner_registry_rejects_unknown_kind():
    # the two literal tables name the same closed set of kinds
    assert set(RUNNERS) == set(JOB_TYPES) == {"scf", "probe"}

    class Fake:
        kind = "nope"

    with pytest.raises(ValueError, match="no runner"):
        run_slice(Fake(), SliceContext())


# ---------------------------------------------------------------------------
# preemption: bit-for-bit sliced SCF
def test_preempted_scf_is_bit_identical_to_unpreempted(tmp_path):
    spec = SCFJobSpec(molecule="H2", degree=2, cells=3, max_scf=40)
    straight = run_jobs(
        [ServeRequest(spec)], workdir=tmp_path / "a",
        policy=SchedulerPolicy(total_ranks=2),
    )
    sliced = run_jobs(
        [ServeRequest(spec)], workdir=tmp_path / "b",
        policy=SchedulerPolicy(total_ranks=2, slice_iterations=1),
    )
    a, b = straight.jobs[0], sliced.jobs[0]
    assert a.state is JobState.DONE and b.state is JobState.DONE
    assert sliced.stats.preemptions > 0 and b.slices > a.slices
    # bitwise, not approx: the resumed trajectory is the same trajectory
    assert b.result["energy"] == a.result["energy"]
    assert b.result["free_energy"] == a.result["free_energy"]
    assert b.result["fermi_level"] == a.result["fermi_level"]
    assert b.result["n_iterations"] == a.result["n_iterations"]


def test_sliced_scf_round_robins_two_jobs_on_one_rank(tmp_path):
    specs = [
        SCFJobSpec(molecule="H2", degree=2, cells=3),
        SCFJobSpec(molecule="LiH", degree=2, cells=3),
    ]
    report = run_jobs(
        [ServeRequest(s) for s in specs], workdir=tmp_path, workers=2,
        policy=SchedulerPolicy(total_ranks=1, slice_iterations=2),
    )
    assert [j.state for j in report.jobs] == [JobState.DONE] * 2
    assert report.stats.preemptions >= 2  # both made multiple passes
    assert all(j.slices > 1 for j in report.jobs)
    # the same requests again replay from the cache, bit for bit
    replay = run_jobs(
        [ServeRequest(s) for s in specs], workdir=tmp_path, workers=2,
        policy=SchedulerPolicy(total_ranks=1, slice_iterations=2),
    )
    assert all(j.cache_hit for j in replay.jobs) and replay.stats.slices == 0
    assert [j.result["energy"] for j in replay.jobs] == [
        j.result["energy"] for j in report.jobs
    ]


# ---------------------------------------------------------------------------
# deadlines + cancellation
def test_deadline_expires_while_queued(tmp_path):
    # one rank, a long job first, then an already-hopeless deadline
    blocker = SCFJobSpec(molecule="H2", degree=2, cells=3)
    doomed = ProbeJobSpec(seed=99)
    report = run_jobs(
        [
            ServeRequest(blocker),
            ServeRequest(doomed, deadline=1e-9),
        ],
        workdir=tmp_path,
        policy=SchedulerPolicy(total_ranks=1),
    )
    assert report.jobs[0].state is JobState.DONE
    late = report.jobs[1]
    assert late.state is JobState.FAILED
    assert "deadline expired" in late.error
    assert report.stats.failed == 1


def test_cancel_queued_and_running_jobs(tmp_path):
    import asyncio

    from repro.serve import SimulationServer

    async def scenario():
        async with SimulationServer(
            tmp_path, policy=SchedulerPolicy(total_ranks=1, slice_iterations=1)
        ) as server:
            running = await server.submit(
                SCFJobSpec(molecule="H2", degree=2, cells=3)
            )
            queued = await server.submit(ProbeJobSpec(seed=7), priority=5)
            assert server.cancel(queued)  # still in the heap: instant
            assert queued.state is JobState.CANCELLED
            # the sliceable running job cancels at its next slice boundary
            while running.state is JobState.QUEUED:
                await asyncio.sleep(0)
            assert server.cancel(running)
            await server.wait(running)
            return running

    running = asyncio.run(scenario())
    assert running.state is JobState.CANCELLED
    assert running.result is None


# ---------------------------------------------------------------------------
# race sanitizer over a multi-worker serve run
def test_multiworker_serve_run_under_armed_sanitizer(
    tmp_path, monkeypatch
):
    """REPRO_SANITIZE=1 over real cross-thread queue/cache traffic."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitize.arm()
    try:
        report = run_jobs(
            probe_load(120, distinct=12, seed=9),
            workdir=tmp_path,
            workers=6,
            policy=SchedulerPolicy(total_ranks=6),
        )
        # a RaceReport inside a worker would surface as FAILED jobs
        assert report.stats.failed == 0
        assert report.stats.completed == 120
        san = sanitize.state()
        # the cache saw real serialized write windows from the workers
        caches = [
            tag
            for tag in san._versions
            if tag.startswith("ResultCache:")
        ]
        assert caches and san.write_version(caches[0]) >= 12
    finally:
        sanitize.disarm()


# ---------------------------------------------------------------------------
# reprolint: serve is covered by the concurrency rules
def test_serve_package_is_concurrency_lint_clean():
    from repro.tools.lint import lint_paths

    findings = lint_paths(
        [str(REPO / "src" / "repro" / "serve")],
        select=("R013", "R014", "R016"),
    )
    assert findings == []


# ---------------------------------------------------------------------------
# CLI
def test_cli_serve_probe_stream(capsys, tmp_path):
    from repro.__main__ import main

    rc = main([
        "serve", "--jobs", "30", "--distinct", "6",
        "--workers", "2", "--ranks", "2",
        "--workdir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "served 30 jobs" in out and "jobs/s" in out


def test_cli_serve_json_summary(capsys, tmp_path):
    from repro.__main__ import main

    rc = main([
        "serve", "--jobs", "20", "--distinct", "4", "--json",
        "--workdir", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["jobs"] == 20
    assert summary["failed"] == 0
    assert summary["jobs_per_second"] > 0
    assert 0.0 <= summary["cache_hit_rate"] <= 1.0


def test_cli_info_lists_registered_commands_dynamically(capsys):
    from repro.__main__ import COMMANDS, main

    assert main(["info"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert f"\n    {name}" in out
    assert "serve" in COMMANDS and "resume" in COMMANDS


def test_cli_scf_checkpoint_metadata_round_trips_through_resume(
    capsys, tmp_path, monkeypatch
):
    """satellite: ``scf --checkpoint`` metadata drives ``resume`` bit-for-bit,
    on the rank backend the interrupted run used."""
    from repro.__main__ import main
    from repro.core import DFTCalculation
    from repro.core.io import load_scf_state

    runs = []  # (backend, energy) of every CLI solve, in order
    run = DFTCalculation.run

    def recording_run(self, *args, **kwargs):
        res = run(self, *args, **kwargs)
        runs.append((self.options.backend, res.energy))
        return res

    monkeypatch.setattr(DFTCalculation, "run", recording_run)
    for backend in ("serial", "virtual"):
        ckpt = str(tmp_path / f"h2-{backend}.ckpt")
        base = ["scf", "H2", "--degree", "2", "--cells", "3",
                "--backend", backend]
        # uninterrupted reference run
        assert main(base + ["--max-scf", "40"]) == 0
        reference = capsys.readouterr().out.strip().splitlines()[-1]
        # interrupted run: budget too small to converge
        assert main(base + ["--max-scf", "3", "--checkpoint", ckpt]) == 1
        capsys.readouterr()
        meta = load_scf_state(ckpt)["metadata"]
        assert meta == {
            "molecule": "H2", "xc": "lda", "degree": 2, "cells": 3,
            "max_scf": 3, "backend": backend, "ranks": 2,
        }
        # resume re-derives the whole configuration from that metadata
        assert main(["resume", ckpt, "--max-scf", "40"]) == 0
        resumed = capsys.readouterr().out.strip().splitlines()[-1]
        assert resumed == reference  # same energy and gap as printed
        (_, e_ref), _, (resumed_backend, e_resumed) = runs[-3:]
        assert resumed_backend == backend
        assert e_resumed == e_ref  # bit for bit


# ---------------------------------------------------------------------------
# tier-2 stress: 10k queued requests
@pytest.mark.slow
def test_serve_10k_request_stress(tmp_path):
    report = run_jobs(
        probe_load(10_000, distinct=128, seed=17),
        workdir=tmp_path,
        workers=8,
        policy=SchedulerPolicy(total_ranks=8),
    )
    assert report.stats.failed == 0
    assert report.stats.completed == 10_000
    assert report.cache_stats.puts == 128
    assert report.stats.max_queue_depth > 0
