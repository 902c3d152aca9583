"""Property sweeps for the repro.tune autotuner (style of test_fast_apply).

Covers the profile store (round-trip exactness, tamper rejection,
host-fingerprint mismatch, atomic writes; the full damaged-file matrix is
``test_artifacts.py``), the sweep engine
(determinism at a fixed seed with an injected deterministic measure, the
shared argmin objective), the ``SCFOptions.resolve`` dispatch contract
(unset knobs fill, explicit values win) and the ``REPRO_TUNE=0`` kill
switch (proven inert by monkeypatch: no profile I/O at all).
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.atomicio import ArtifactError, write_artifact
from repro.core.scf import SCFOptions
from repro.tune import profile as profile_mod
from repro.tune import sweep as sweep_mod
from repro.tune.profile import (
    PROFILE_SCHEMA,
    ProfileError,
    TunedProfile,
    default_profile_path,
    fingerprint_digest,
    host_fingerprint,
    load_host_profile,
    load_profile,
    profile_dir,
    save_profile,
    tuning_enabled,
)
from repro.tune.sweep import (
    SweepConfig,
    best_candidate,
    pick_modeled,
    run_sweep,
)

_SWEEP_SEEDS = range(8)


def _random_profile(seed: int) -> TunedProfile:
    rng = np.random.default_rng(seed)
    knobs = {
        "block_size": int(rng.choice([8, 16, 32, 64])),
        "subspace_block_size": int(rng.choice([8, 16, 32, 64])),
        "num_threads": int(rng.integers(1, 9)),
    }
    tables = {
        "apply": {
            "medium": {str(b): float(rng.uniform(1e-4, 1e-2))
                       for b in (8, 16, 32, 64)},
        },
    }
    return TunedProfile(
        knobs=knobs,
        fingerprint=host_fingerprint(),
        seed=seed,
        sweep={"tables": tables, "wall_seconds": float(rng.uniform(0, 5))},
        model={"workload": "DislocMgY", "nodes": 128, "block_size": 250},
    )


# ---------------------------------------------------------------------------
# profile store
@pytest.mark.parametrize("seed", _SWEEP_SEEDS)
def test_profile_round_trip_is_exact(seed, tmp_path):
    prof = _random_profile(seed)
    path = save_profile(prof, tmp_path / f"p{seed}.json")
    back = load_profile(path)
    assert back == prof


def test_default_path_is_fingerprint_addressed():
    path = default_profile_path()
    assert path.parent == profile_dir()
    assert fingerprint_digest(host_fingerprint()) in path.name
    # the hermetic conftest fixture points REPRO_TUNE_DIR at tmp storage
    assert "tune-profiles" in str(path)


def test_save_creates_directories_and_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "nested" / "profile.json"
    save_profile(_random_profile(0), target)
    assert target.exists()
    assert [p.name for p in target.parent.iterdir()] == ["profile.json"]


@pytest.mark.parametrize("seed", _SWEEP_SEEDS)
def test_tampered_profile_is_rejected(seed, tmp_path):
    path = save_profile(_random_profile(seed), tmp_path / "p.json")
    envelope = json.loads(path.read_text())
    envelope["tree"]["knobs"]["block_size"] = 4096  # flip a knob, keep old digest
    path.write_text(json.dumps(envelope))
    with pytest.raises(ArtifactError, match="digest mismatch"):
        load_profile(path)
    assert load_host_profile(path) is None  # degraded to "no profile"


def test_wrong_schema_is_rejected(tmp_path):
    path = save_profile(_random_profile(2), tmp_path / "p.json")
    envelope = json.loads(path.read_text())
    envelope["schema"] = "repro-tune-profile/999"
    path.write_text(json.dumps(envelope))
    with pytest.raises(ArtifactError, match="wrong schema"):
        load_profile(path)


def test_foreign_fingerprint_is_ignored_not_crashed(tmp_path):
    prof = _random_profile(3)
    foreign = dict(prof.fingerprint)
    foreign["cpu_count"] = int(foreign["cpu_count"]) + 512
    alien = TunedProfile(
        knobs=prof.knobs, fingerprint=foreign, seed=prof.seed,
        sweep=prof.sweep, model=prof.model,
    )
    path = save_profile(alien, tmp_path / "alien.json")
    assert load_profile(path) == alien  # the file itself verifies...
    assert load_host_profile(path) is None  # ...but the host rejects it


def test_invalid_knobs_are_rejected():
    with pytest.raises(ProfileError, match="unknown tunable"):
        TunedProfile(knobs={"warp_factor": 9}, fingerprint=host_fingerprint())
    with pytest.raises(ProfileError, match="int >= 1"):
        TunedProfile(knobs={"block_size": 0}, fingerprint=host_fingerprint())
    with pytest.raises(ProfileError, match="unknown tunable"):
        TunedProfile(
            knobs={"scatter_engine": "csr"}, fingerprint=host_fingerprint()
        )


def test_stored_profile_with_retired_scatter_engine_knob_is_no_profile():
    """A profile that verifies but names the retired scatter engine knob is
    ignored like any unknown knob."""
    body = {
        "fingerprint": host_fingerprint(),
        "knobs": {"block_size": 16, "subspace_block_size": 16,
                  "scatter_engine": "csr", "num_threads": 1},
        "seed": 0,
        "sweep": {},
        "model": {},
    }
    path = default_profile_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    write_artifact(path, PROFILE_SCHEMA, body)
    with pytest.raises(ProfileError, match="unknown tunable knob 'scatter_engine'"):
        load_profile(path)
    assert load_host_profile() is None
    assert SCFOptions().resolve(load_host_profile()).block_size == 64


# ---------------------------------------------------------------------------
# kill switch: REPRO_TUNE=0 must be inert — no profile I/O at all
def test_repro_tune_zero_reads_nothing(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("profile I/O attempted under REPRO_TUNE=0")

    monkeypatch.setattr(profile_mod, "default_profile_path", boom)
    monkeypatch.setattr(profile_mod, "load_profile", boom)
    # the traps are armed: with tuning enabled the pickup would trip them
    assert tuning_enabled()
    with pytest.raises(AssertionError):
        load_host_profile()
    monkeypatch.setenv("REPRO_TUNE", "0")
    assert not tuning_enabled()
    assert load_host_profile() is None  # returns before any path/file work
    assert load_host_profile("somewhere/p.json") is None


@pytest.mark.parametrize("flag", ["0", "false", "off", "NO"])
def test_kill_switch_spellings(monkeypatch, flag):
    monkeypatch.setenv("REPRO_TUNE", flag)
    assert not tuning_enabled()


def test_driver_options_ignore_profile_under_kill_switch(monkeypatch):
    save_profile(_random_profile(4))  # at the hermetic default path
    monkeypatch.setenv("REPRO_TUNE", "0")
    opts = SCFOptions().resolve(load_host_profile())
    assert opts.block_size == 64 and opts.num_threads is None


# ---------------------------------------------------------------------------
# SCFOptions.resolve dispatch contract
def test_resolve_fills_only_unset_knobs():
    prof = TunedProfile(
        knobs={"block_size": 8, "subspace_block_size": 16, "num_threads": 4},
        fingerprint=host_fingerprint(),
    )
    filled = SCFOptions().resolve(prof)
    assert (filled.block_size, filled.subspace_block_size,
            filled.num_threads) == (8, 16, 4)
    explicit = SCFOptions(block_size=48, num_threads=1).resolve(prof)
    assert explicit.block_size == 48  # explicit user values always win
    assert explicit.num_threads == 1
    assert explicit.subspace_block_size == 16  # the one knob left unset


def test_resolve_is_idempotent_and_none_safe():
    opts = SCFOptions()
    assert opts.resolve(None) is opts
    assert opts._resolved  # marked so the driver skips a second pickup
    prof = TunedProfile(
        knobs={"block_size": 8}, fingerprint=host_fingerprint()
    )
    once = SCFOptions().resolve(prof)
    twice = once.resolve(prof)
    assert twice.block_size == once.block_size == 8


def test_env_num_threads_beats_the_profile(monkeypatch):
    prof = TunedProfile(
        knobs={"num_threads": 7}, fingerprint=host_fingerprint()
    )
    monkeypatch.setenv("REPRO_NUM_THREADS", "3")
    opts = SCFOptions().resolve(prof)
    assert opts.num_threads is None  # driver reads the env value (3)
    monkeypatch.delenv("REPRO_NUM_THREADS")
    assert SCFOptions().resolve(prof).num_threads == 7


def test_subspace_block_falls_back_to_block_size():
    assert SCFOptions().subspace_block == 64
    assert SCFOptions(block_size=32).subspace_block == 32
    assert SCFOptions(block_size=32, subspace_block_size=8).subspace_block == 8


# ---------------------------------------------------------------------------
# sweep engine
def _tiny_config(seed: int = 0) -> SweepConfig:
    return SweepConfig(
        seed=seed, repeats=1, degree=2,
        block_sizes=(8, 16), subspace_blocks=(8, 16),
        buckets=(("small", 2, 8),), subspace_ndof=192, subspace_nvec=16,
        thread_task_dim=24, thread_counts=(1, 2),
    )


def _counter_measure():
    counter = itertools.count()
    return lambda fn: 100.0 - 0.5 * next(counter)


@pytest.mark.parametrize("seed", _SWEEP_SEEDS)
def test_sweep_is_deterministic_at_fixed_seed(seed):
    a = run_sweep(_tiny_config(seed), _counter_measure())
    b = run_sweep(_tiny_config(seed), _counter_measure())
    assert a.knobs == b.knobs
    assert a.tables == b.tables
    assert a.seed == b.seed == seed


def test_sweep_tables_are_json_round_trippable():
    res = run_sweep(_tiny_config(), _counter_measure())
    assert json.loads(json.dumps(res.tables)) == res.tables
    assert set(res.knobs) == {
        "block_size", "subspace_block_size", "num_threads",
    }


def test_real_sweep_picks_a_member_of_every_candidate_grid():
    cfg = _tiny_config()
    res = run_sweep(cfg)  # real Stopwatch timing, tiny problem
    assert res.knobs["block_size"] in cfg.block_sizes
    assert res.knobs["subspace_block_size"] in cfg.subspace_blocks
    assert res.knobs["num_threads"] in cfg.thread_counts
    assert res.wall_seconds > 0.0


def test_sweep_choice_minimizes_its_own_table():
    """The tuned B_f is <= every fixed candidate it measured."""
    res = run_sweep(_tiny_config(), _counter_measure())
    table = res.tables["apply"]["small"]
    assert table[str(res.knobs["block_size"])] == min(table.values())


def test_best_candidate_breaks_ties_toward_first_listed():
    cand, cost = best_candidate(["a", "b", "c"], lambda _: 1.0)
    assert (cand, cost) == ("a", 1.0)
    cand, _ = best_candidate([3, 1, 2], float)
    assert cand == 1
    with pytest.raises(ValueError):
        best_candidate([], float)


def test_modeled_pick_uses_the_shared_objective(monkeypatch):
    calls = []
    orig = sweep_mod.best_candidate

    def spy(candidates, cost):
        calls.append(len(list(candidates)))
        return orig(candidates, cost)

    monkeypatch.setattr(sweep_mod, "best_candidate", spy)
    pick = pick_modeled(
        workload="DislocMgY", node_counts=(128, 256), block_sizes=(100, 250)
    )
    assert calls == [4]  # one shared-argmin call over the full grid
    assert pick["nodes"] in (128, 256) and pick["block_size"] in (100, 250)
    assert pick["node_seconds"] == pytest.approx(
        pick["seconds"] * pick["nodes"]
    )
