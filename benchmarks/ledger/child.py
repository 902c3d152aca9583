"""One workload in one fresh process: the ledger's measuring child.

``run.py`` starts this file with a scrubbed environment, once per
measurement, and reads the single JSON document it prints last.  Modes:

``setup``      build the workload's driver, report ``setup_s``, exit;
``measure``    set-up, then timed operations for ``--seconds``, each one
               checked against ``reference.json`` (tracing off);
``trace``      an untraced operation, one with every patch point of
               ``layers.py`` installed, another untraced one, then the
               workload's traced-only phases; reports every per-layer metric;
``reference``  compute this variant's ``reference.json`` entry.

``setup_s`` runs from the moment the parent started this process
(``--t0``, the parent's ``time.time()``) to the driver object standing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import layers
from layers import clock


def _since(t0: float) -> float:
    return time.time() - t0  # reprolint: disable=R009


def _disarm_fsync() -> None:
    """Make ``os.fsync`` a no-op in this process.

    The sandbox's disk has a burst budget: sustained flushes drain it (the
    closed loop of ``serve_wave`` falls from 916 to 570 jobs/s within four
    waves and does not recover within a minute; with the flush disarmed it
    holds 735-876), so every number of a workload that writes would depend
    on what ran before it.  How often the program flushes is still visible
    as ``serve.cache_put`` and ``io.checkpoint_write`` calls in the trace;
    how long the host's disk takes is not a property of the program.
    """
    os.fsync = lambda fd: None


def _peak_rss_mb() -> float:
    """This process's high-water RSS plus its largest reaped rank's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + ranks) / 1024.0  # Linux reports KiB


def load_reference(path: str, size: str, name: str, variant: int) -> dict:
    with open(path, encoding="utf-8") as f:
        table = json.load(f)[size][name]
    return {"accuracy_ha": table["accuracy_ha"], **table["variants"][str(variant)]}


def _op_record(workload, op) -> dict:
    from workloads import percentile

    checks, energy_err = workload.check(op)
    lat = op.latencies_s
    return {
        "wall_s": op.wall_s,
        "jobs_per_s": op.jobs_per_s,
        "latency_p50_ms": 1e3 * percentile(lat, 0.50),
        "latency_p99_ms": 1e3 * percentile(lat, 0.99),
        "latency_samples": len(lat),
        "attempted": len(checks),
        "failed": sum(1 for _, ok in checks if not ok),
        "failed_checks": [label for label, ok in checks if not ok],
        "energy_err_ha": energy_err,
    }


def measure(workload, driver, seconds: float) -> dict:
    """Timed operations until ``seconds`` are used; at least one."""
    ops = []
    start = clock()
    while True:
        ops.append(_op_record(workload, workload.solve(driver)))
        if len(ops) == 1:
            # read after a fixed amount of work, so it does not depend on
            # how many operations the time budget allowed
            peak_rss_mb = _peak_rss_mb()
        typical = statistics.median(o["wall_s"] for o in ops)
        if clock() - start + 0.5 * typical >= seconds:
            break
        driver = workload.build()
    return {"ops": ops, "peak_rss_mb": peak_rss_mb}


def trace(workload, driver, spans_path: str | None) -> dict:
    from repro.hpc.flops import FlopLedger

    first = workload.solve(driver)
    recorder = layers.Recorder(workload.name)
    undo = layers.install(recorder)
    try:
        traced = workload.solve(workload.build(ledger=FlopLedger()))
    finally:
        layers.uninstall(undo)
    # the first operation of a process also pays for cold caches and first
    # page faults, so the tracing overhead is taken against the better of
    # an untraced operation before and one after the traced one
    again = workload.solve(workload.build())
    untraced = min(first, again, key=lambda op: op.wall_s)
    ops = {"untraced": untraced, "traced": traced}
    extras = workload.traced_extras(ops)
    records = [_op_record(workload, op) for op in (first, traced, again)]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    extras["energy_err_ha"] = max(r["energy_err_ha"] for r in records)
    extras["failed_frac"] = failed / attempted
    for name in ("jobs_per_s", "latency_p50_ms", "latency_p99_ms"):
        extras[name] = records[0 if untraced is first else 2][name]
    extras["obs.trace_overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    if spans_path is not None:
        recorder.write_jsonl(spans_path)
    return {
        "metrics": layers.layer_metrics(layers.summarize(recorder.spans), extras),
        "fired_points": sorted({span["point"] for span in recorder.spans}),
        "spans": len(recorder.spans),
        "attempted": attempted,
        "failed": failed,
        "failed_checks": [c for r in records for c in r["failed_checks"]],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "reference"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    from workloads import make_workload

    _disarm_fsync()
    workload = make_workload(args.workload, args.seed, args.size, args.scratch)
    if args.mode == "reference":
        out = {"variant": workload.variant, "entry": workload.reference()}
    else:
        workload.ref = load_reference(
            args.reference, args.size, args.workload, workload.variant
        )
        driver = workload.build()
        out = {"setup_s": _since(args.t0)}
        if args.mode == "setup":
            workload.discard(driver)
        else:
            workload.warm_up()
            if args.mode == "measure":
                out.update(measure(workload, driver, args.seconds))
            else:
                out.update(trace(workload, driver, args.spans))
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
