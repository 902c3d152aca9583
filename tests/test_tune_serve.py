"""End-to-end composition: tuned profiles x preemptive serve x result cache.

The serve layer treats tuning as scheduler *policy* (like the rank
backend): ``SchedulerPolicy.tuned`` flows through ``SliceContext`` into
the per-slice ``SCFOptions(autotune=...)``, while job keys hash only the
job spec — so cached results are tune-independent by construction, a
tuned preempted run replays bit-identical to an untuned straight run,
and a repeat submission under the opposite tuning policy is a pure cache
hit.
"""

from __future__ import annotations

import pytest

from repro.serve import (
    JobState,
    SchedulerPolicy,
    SCFJobSpec,
    ServeRequest,
    run_jobs,
)
from repro.serve.queue import Job
from repro.serve.scheduler import Scheduler
from repro.tune.profile import (
    TunedProfile,
    host_fingerprint,
    load_host_profile,
    save_profile,
)

#: same off-default schedule the golden tests use (tests/test_tune_golden)
TUNED_KNOBS = {
    "block_size": 16,
    "subspace_block_size": 32,
    "num_threads": 2,
}


def _install_tuned_profile():
    prof = TunedProfile(knobs=dict(TUNED_KNOBS), fingerprint=host_fingerprint())
    save_profile(prof)
    assert load_host_profile() is not None


def test_job_key_ignores_tuning_state():
    spec = SCFJobSpec(molecule="H2", degree=2, cells=3, max_scf=8)
    key_before = spec.job_key()
    _install_tuned_profile()
    assert spec.job_key() == key_before  # keys hash the spec, not the host


def test_policy_tuned_flag_reaches_the_slice_context(tmp_path):
    for tuned in (True, False):
        sched = Scheduler(SchedulerPolicy(total_ranks=2, tuned=tuned), tmp_path)
        job = Job(job_id=1, spec=SCFJobSpec(molecule="H2", max_scf=2))
        sched.submit(job)
        assert sched.next_dispatch(now=0.0) is job
        assert sched.slice_context(job).tuned is tuned
        sched.release(job)


def test_tuned_sliced_run_is_bitwise_equal_to_untuned_straight(tmp_path):
    """Profile + preemptive slicing together still never move a bit."""
    _install_tuned_profile()
    spec = SCFJobSpec(molecule="H2", degree=2, cells=3, max_scf=8)
    straight = run_jobs(
        [ServeRequest(spec)], workdir=tmp_path / "plain",
        policy=SchedulerPolicy(total_ranks=2, tuned=False),
    )
    sliced = run_jobs(
        [ServeRequest(spec)], workdir=tmp_path / "tuned",
        policy=SchedulerPolicy(total_ranks=2, slice_iterations=1, tuned=True),
    )
    a, b = straight.jobs[0], sliced.jobs[0]
    assert a.state is JobState.DONE and b.state is JobState.DONE
    assert sliced.stats.preemptions > 0 and b.slices > a.slices
    for field in ("energy", "free_energy", "fermi_level", "n_iterations"):
        assert b.result[field] == a.result[field]  # bit for bit


def test_cache_replay_is_tune_independent(tmp_path):
    """A result cached by a tuned run serves an untuned resubmission."""
    _install_tuned_profile()
    spec = SCFJobSpec(molecule="H2", degree=2, cells=3, max_scf=8)
    first = run_jobs(
        [ServeRequest(spec)], workdir=tmp_path,
        policy=SchedulerPolicy(total_ranks=2, slice_iterations=2, tuned=True),
    )
    assert first.stats.cache_hits == 0
    replay = run_jobs(
        [ServeRequest(spec)], workdir=tmp_path,
        policy=SchedulerPolicy(total_ranks=2, tuned=False),
    )
    assert replay.stats.cache_hits == 1  # same workdir, same content key
    assert replay.jobs[0].result == first.jobs[0].result


def test_kill_switch_overrides_serve_policy(tmp_path, monkeypatch):
    """REPRO_TUNE=0 beats ``tuned=True`` policy: the slice still runs,
    its options just resolve against no profile."""
    _install_tuned_profile()
    monkeypatch.setenv("REPRO_TUNE", "0")
    report = run_jobs(
        [ServeRequest(SCFJobSpec(molecule="H2", degree=2, cells=3, max_scf=4))],
        workdir=tmp_path,
        policy=SchedulerPolicy(total_ranks=2, tuned=True),
    )
    assert report.jobs[0].state is JobState.DONE
