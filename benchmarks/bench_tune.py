"""Autotuner payoff: the tuned schedule beats or ties every fixed default.

Runs the real ``repro.tune`` sweep (seeded probes, Stopwatch timing,
reproscope-metered wall) on this host, then checks the headline gate: in
every probe family — B_f apply passes per bucket, subspace
block sizes, thread-pool widths — the tuned pick's measured seconds are
<= every fixed candidate's seconds.  A fixed default can only tie the
tuner, never beat it, on the probe set it was tuned on.

Also records the speedup over the built-in default schedule
(B_f=64 / subspace 64 / 1 thread) and the tuner's own wall cost,
taken from the ``Tune-sweep`` span.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_tune.py

or via pytest (``pytest benchmarks/bench_tune.py``), which also enforces
the tuned-is-argmin gate.
"""

import tempfile
from pathlib import Path

from repro.tune.profile import load_profile
from repro.tune.sweep import SweepConfig, autotune

from _harness import write_result

REPEATS = 2
#: the schedule a user gets with no profile: the SCFOptions defaults
DEFAULTS = {
    "block_size": 64,
    "subspace_block_size": 64,
    "num_threads": 1,
}


def _schedule_seconds(tables, knobs, buckets):
    """Measured cost of one schedule (tuned or default), per family."""
    headline = tables["apply"][buckets[-1][0]]
    return {
        "apply": headline[str(knobs["block_size"])],
        "subspace": tables["subspace"][str(knobs["subspace_block_size"])],
        "threads": tables["threads"][str(knobs["num_threads"])],
    }


def bench() -> dict:
    cfg = SweepConfig(repeats=REPEATS)
    with tempfile.TemporaryDirectory() as tmp:
        profile, written = autotune(cfg, path=Path(tmp) / "profile.json")
        stored = load_profile(written)  # persisted envelope verifies
    assert stored == profile

    tables = profile.sweep["tables"]
    buckets = [tuple(b) for b in profile.sweep["buckets"]]
    tuned = _schedule_seconds(tables, profile.knobs, buckets)
    default = _schedule_seconds(tables, DEFAULTS, buckets)

    # the gate: in every family the tuned pick is <= every fixed candidate
    ties_or_wins = {}
    headline = tables["apply"][buckets[-1][0]]
    ties_or_wins["apply"] = all(tuned["apply"] <= s for s in headline.values())
    ties_or_wins["subspace"] = all(
        tuned["subspace"] <= s for s in tables["subspace"].values()
    )
    ties_or_wins["threads"] = all(
        tuned["threads"] <= s for s in tables["threads"].values()
    )

    metrics = {
        "knobs": profile.knobs,
        "tuned_seconds": tuned,
        "default_seconds": default,
        "speedup_vs_default": {
            family: default[family] / tuned[family] for family in tuned
        },
        "tuned_beats_or_ties_every_default": ties_or_wins,
        "modeled_pick": profile.model,
        "tuner_wall_seconds": profile.sweep["wall_seconds"],
    }
    write_result(
        "tune",
        params={
            "repeats": REPEATS,
            "seed": cfg.seed,
            "buckets": [list(b) for b in buckets],
            "block_sizes": list(cfg.block_sizes),
            "subspace_blocks": list(cfg.subspace_blocks),
            "thread_counts": list(cfg.resolved_thread_counts()),
        },
        wall_seconds=profile.sweep["wall_seconds"],
        metrics=metrics,
    )
    return metrics


def test_tuned_beats_every_fixed_default():
    """No fixed schedule outruns the tuned pick on the probes it swept."""
    metrics = bench()
    assert all(metrics["tuned_beats_or_ties_every_default"].values()), metrics
    for family, speedup in metrics["speedup_vs_default"].items():
        assert speedup >= 1.0, (family, metrics)


if __name__ == "__main__":
    out = bench()
    print("tuned knobs:", out["knobs"])
    print("speedup vs default schedule:", {
        k: round(v, 3) for k, v in out["speedup_vs_default"].items()
    })
    print(f"tuner wall: {out['tuner_wall_seconds']:.2f}s")
    print("modeled pick:", out["modeled_pick"])
