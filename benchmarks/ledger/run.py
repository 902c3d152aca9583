"""The benchmark ledger: seven canonical workloads, measured end to end.

``BENCHMARK.json`` names the three of them a later PR is gated on (serial and
CPU-bound, so their numbers repeat); the ledger form measures all seven.

Two ways in, one measurement underneath:

* the contract form, one measurement and a one-line JSON result::

      python3 benchmarks/ledger/run.py --workload scf_h2o --seed 3 \\
          --seconds 38 --trace 0        # end-to-end metrics
      ... --trace 1                     # per-layer metrics

* the ledger form, every (or each named) workload ``--repeats`` times,
  every metric printed by name with its unit, and a ``repro-ledger/1``
  record written under ``--out``::

      python3 benchmarks/ledger/run.py [--workload W ...] [--seed S]
          [--repeats N] [--traced] [--smoke] [--out DIR]
      python3 benchmarks/ledger/run.py --make-reference [--smoke]

Every measurement runs in fresh child processes (``child.py``) under a
scrubbed environment: one BLAS thread, no ``REPRO_*`` variable, an empty
``REPRO_TUNE_DIR``, and all scratch (serve workdirs, caches, checkpoints,
``TMPDIR``) in a directory of this checkout that is removed afterwards.
Names, units, bounds and the run length come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
BENCHMARK = REPO / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
SCRATCH_ROOT = REPO / ".ledger_scratch"

#: the ledger's workloads (``workloads.WORKLOADS``, which the parent does not
#: import: it must start without the program); BENCHMARK.json lists a subset
ALL_WORKLOADS = (
    "scf_h2o", "scf_mg32_k2", "scf_mg32_proc2", "scf_lih_mlxc", "pipeline_h2",
    "screen_h2_scan", "serve_wave",
)
SCHEMA = "repro-ledger/1"
REFERENCE_SCHEMA = "repro-ledger-reference/1"
#: fresh processes per run whose fastest set-up is reported as ``setup_s``
SETUP_SAMPLES = 5
#: a child that has not finished by then is killed (the contract allows 180 s)
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A measuring child crashed, timed out or printed no result."""


def _now() -> float:
    return time.time()  # reprolint: disable=R009


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as f:
        return json.load(f)


def child_env(scratch: pathlib.Path) -> dict:
    """The environment every child runs under (recorded in every record)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_TUNE_DIR"] = str(scratch / "tune")  # empty: no host profile
    env["TMPDIR"] = str(scratch)
    return env


def recorded_env() -> dict:
    """What :func:`child_env` sets, with the per-run scratch path elided."""
    env = child_env(pathlib.Path("<scratch>"))
    keep = THREAD_VARS + ("PYTHONHASHSEED", "REPRO_TUNE_DIR", "TMPDIR")
    return {k: env[k] for k in keep}


def run_child(mode: str, workload: str, seed: int, size: str,
              scratch: pathlib.Path, seconds: float = 0.0,
              spans: pathlib.Path | None = None) -> dict:
    """Run ``child.py`` to completion and return the document it printed."""
    if not SRC.is_dir():
        raise ChildFailed(f"no program to measure: {SRC} is missing")
    (scratch / "tune").mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--seconds", str(seconds), "--scratch", str(scratch),
        "--reference", str(REFERENCE), "--t0", repr(_now()),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # its own process group, so forked ranks die with it whatever happens
    proc = subprocess.Popen(
        cmd, env=child_env(scratch), cwd=REPO, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}/{mode}: no result in {CHILD_TIMEOUT_S:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # reprolint: disable=R005 -- already ended
            pass
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}/{mode}: child exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload}/{mode}: child printed nothing")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, size: str,
            spans: pathlib.Path | None = None) -> dict:
    """One measurement of one workload: the contract's unit of work.

    ``trace == 0`` gives the end-to-end metrics (tracing off; set-up is
    the best of ``SETUP_SAMPLES`` fresh processes, every other number the
    best of the run's timed operations); ``trace == 1`` gives the per-layer
    metrics of one traced operation.
    """
    bench = load_benchmark()
    scratch = SCRATCH_ROOT / f"{workload}-{os.getpid()}"
    try:
        if trace:
            doc = run_child("trace", workload, seed, size, scratch, spans=spans)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            values = doc["metrics"]
            attempted, failed = doc["attempted"], doc["failed"]
            detail = {k: doc[k] for k in ("fired_points", "spans", "failed_checks")}
        else:
            # set-up samples on both sides of the timed operations, so that
            # a slow spell of the host has to outlast the whole run to mark
            # every sample
            extra = SETUP_SAMPLES - 1 if size == "full" else 0

            def set_up(n):
                return [run_child("setup", workload, seed, size, scratch)["setup_s"]
                        for _ in range(n)]

            setups = set_up(extra // 2)
            doc = run_child("measure", workload, seed, size, scratch, seconds)
            setups += [doc["setup_s"]] + set_up(extra - extra // 2)
            ops = doc["ops"]
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            # the best operation of the run: interference from the host only
            # ever slows one down, so the best is the least disturbed
            values = {
                "setup_s": min(setups),
                "wall_s": min(op["wall_s"] for op in ops),
                "peak_rss_mb": doc["peak_rss_mb"],
            }
            attempted = sum(op["attempted"] for op in ops)
            failed = sum(op["failed"] for op in ops)
            detail = {
                "ops": ops, "setup_samples": setups,
                "energy_err_ha": max(op["energy_err_ha"] for op in ops),
                "failed_checks": [c for op in ops for c in op["failed_checks"]],
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH_ROOT.is_dir() and not any(SCRATCH_ROOT.iterdir()):
            SCRATCH_ROOT.rmdir()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


# -- the ledger form ------------------------------------------------------------
def host_stamp() -> dict:
    """Who measured: host fingerprint, commit, library versions."""
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from repro.tune import host_fingerprint

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=REPO, capture_output=True, text=True, timeout=10
            )
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "host": host_fingerprint(),
        "nproc": os.cpu_count(),
        "machine": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


def _crashed(bench: dict, key: str, why: str) -> dict:
    """A workload whose child died: one operation attempted, one failed."""
    units = {m["name"]: m["unit"] for m in bench[key]}
    return {
        "correct": False, "attempted": 1, "failed": 1,
        "metrics": {k: {"value": None, "unit": u} for k, u in units.items()},
        "detail": {"failed_checks": [why]},
    }


def run_ledger(args) -> int:
    bench = load_benchmark()
    names = args.workload or ALL_WORKLOADS
    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else float(
        args.seconds if args.seconds is not None else bench["run_seconds"]
    )
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "schema": SCHEMA, "stamp": host_stamp(), "seed": args.seed, "size": size,
        "repeats": args.repeats, "seconds": seconds,
        "environment": recorded_env(),
        "workloads": {},
    }
    failed_total = 0
    for name in names:
        runs = []
        for _ in range(args.repeats):
            try:
                runs.append(measure(name, args.seed, seconds, 0, size))
            except ChildFailed as err:
                runs.append(_crashed(bench, "end_to_end", str(err)))
        entry = {"end_to_end": {}, "runs": runs}
        for metric in bench["end_to_end"]:
            samples = [
                r["metrics"][metric["name"]]["value"] for r in runs
                if r["metrics"][metric["name"]]["value"] is not None
            ]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "samples": samples, "n": len(samples),
                "median": statistics.median(samples) if samples else None,
                "min": min(samples, default=None), "max": max(samples, default=None),
            }
        errs = [r["detail"]["energy_err_ha"] for r in runs
                if "energy_err_ha" in r["detail"]]
        entry["energy_err_ha"] = max(errs, default=None)
        if args.traced:
            spans = out_dir / f"spans-{name}.jsonl" if out_dir else None
            try:
                entry["per_layer"] = measure(name, args.seed, seconds, 1, size, spans)
            except ChildFailed as err:
                entry["per_layer"] = _crashed(bench, "per_layer", str(err))
            runs = runs + [entry["per_layer"]]
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        failed_total += entry["failed"]
        record["workloads"][name] = entry
        _print_entry(name, entry)
    if out_dir is not None:
        path = out_dir / "ledger.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
        print(f"record written to {path}")
    return 1 if failed_total else 0


def _print_entry(name: str, entry: dict) -> None:
    print(f"== {name}: failed {entry['failed']} of {entry['attempted']} checks, "
          f"energy_err_ha {entry['energy_err_ha']}")
    for metric, s in entry["end_to_end"].items():
        if s["median"] is None:
            print(f"  {metric:<34} no sample")
            continue
        print(f"  {metric:<34} {s['median']:>14.6g} {s['unit']:<8}"
              f" [{s['min']:.6g} .. {s['max']:.6g}] n={s['n']}")
    layer = entry.get("per_layer")
    if layer is not None:
        busy = {k: v for k, v in layer["metrics"].items() if v["value"]}
        for metric, v in busy.items():
            print(f"  {metric:<34} {v['value']:>14.6g} {v['unit']}")
        print(f"  ({len(layer['metrics']) - len(busy)} metrics of layers this "
              "workload leaves idle read 0)")
        for label in layer["detail"]["failed_checks"]:
            print(f"  FAILED (traced) {label}")
    for run in entry["runs"]:
        for label in run["detail"]["failed_checks"]:
            print(f"  FAILED {label}")


def make_reference(args) -> int:
    """Recompute the pinned references (slow: tight-tolerance solves)."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import N_VARIANTS, WORKLOADS

    size = "smoke" if args.smoke else "full"
    table = {"schema": REFERENCE_SCHEMA, "variants": N_VARIANTS}
    if REFERENCE.exists():
        table.update(json.loads(REFERENCE.read_text()))
    table[size] = dict(table.get(size, {}))
    scratch = SCRATCH_ROOT / f"reference-{os.getpid()}"
    try:
        for name in args.workload or list(WORKLOADS):
            cls = WORKLOADS[name]
            variants = {}
            for seed in range(N_VARIANTS if cls.rattles else 1):
                doc = run_child("reference", name, seed, size, scratch)
                variants[str(doc["variant"])] = doc["entry"]
                print(f"{name} variant {doc['variant']}: {json.dumps(doc['entry'])}")
            table[size][name] = {
                "accuracy_ha": cls.accuracy_ha, "variants": variants,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all seven)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 is the canonical geometry")
    ap.add_argument("--seconds", type=float,
                    help="measured length of one run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="contract form: 0 = end-to-end, 1 = per-layer")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--traced", action="store_true",
                    help="ledger form: add one traced pass per workload")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one operation, one set-up sample")
    ap.add_argument("--out", help="directory for the record and the span files")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)
    unknown = [w for w in args.workload or [] if w not in ALL_WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown}; the ledger has {ALL_WORKLOADS}")

    if args.make_reference:
        return make_reference(args)
    if args.trace is None:
        return run_ledger(args)
    if not args.workload or len(args.workload) != 1:
        ap.error("--trace measures exactly one --workload")
    seconds = args.seconds if args.seconds is not None else (
        load_benchmark()["run_seconds"]
    )
    result = measure(
        args.workload[0], args.seed, 0.0 if args.smoke else seconds, args.trace,
        "smoke" if args.smoke else "full",
    )
    for label in result["detail"]["failed_checks"]:
        print(f"FAILED {label}", file=sys.stderr)
    del result["detail"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as err:
        print(f"ledger: {err}", file=sys.stderr)
        sys.exit(2)
