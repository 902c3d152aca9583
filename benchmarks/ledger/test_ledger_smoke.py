"""Smoke test of the benchmark ledger: ``python -m pytest benchmarks/ledger``.

Runs all seven workloads once at ``--smoke`` sizes, untraced and traced,
and holds the ledger to its own declarations: ``BENCHMARK.json``, the
metric tables and the patch table must name the same things, every patch
point must fire where it claims to, and nothing may fail or leak.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    proc = _run(HERE / "run.py", "--smoke", "--traced", "--repeats", "1",
                "--out", out)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out, json.loads((out / "ledger.json").read_text()), proc.stdout


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # 4 + 22 runs per workload, each about run_seconds plus set-up
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 6) < 3420


def test_tables_and_benchmark_json_name_the_same_things(ledger):
    _, record, stdout = ledger
    # the ledger measures all seven; BENCHMARK.json gates on some of them
    assert set(record["workloads"]) == set(run.ALL_WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.ALL_WORKLOADS)
    declared_e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    declared_layers = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
    assert declared_layers == layers.LAYER_METRICS
    for name, entry in record["workloads"].items():
        emitted = {k: v["unit"] for k, v in entry["end_to_end"].items()}
        assert emitted == declared_e2e, name
        assert all(v["median"] for v in entry["end_to_end"].values()), name
        traced = entry["per_layer"]["metrics"]
        assert {k: v["unit"] for k, v in traced.items()} == {
            k: u for k, (u, _) in declared_layers.items()
        }, name
        for metric in declared_e2e:
            assert re.search(rf"^\s+{re.escape(metric)}\s", stdout, re.M), metric


def test_every_patch_point_fires_where_it_claims(ledger):
    _, record, _ = ledger
    for name, entry in record["workloads"].items():
        fired = set(entry["per_layer"]["detail"]["fired_points"])
        silent = [
            f"{module}.{attribute}"
            for i, (module, attribute, _, fires_on, _) in enumerate(layers.POINTS)
            if name in fires_on and i not in fired
        ]
        assert not silent, f"{name}: patch points never called: {silent}"
    claimed = {w for point in layers.POINTS for w in point[3]}
    assert claimed <= set(record["workloads"])


def test_no_check_fails_and_no_segment_leaks(ledger):
    from repro.hpc.procranks import SharedArena

    _, record, _ = ledger
    for name, entry in record["workloads"].items():
        assert entry["failed"] == 0, (name, [
            r["detail"]["failed_checks"] for r in entry["runs"]
        ], entry["per_layer"]["detail"]["failed_checks"])
        assert entry["per_layer"]["metrics"]["failed_frac"]["value"] == 0.0
    assert SharedArena.live_segment_names() == []
    halo = record["workloads"]["scf_mg32_proc2"]["per_layer"]["metrics"]
    assert halo["hpc.halo_bytes"]["value"] > 0


def test_record_envelope(ledger):
    out, record, _ = ledger
    assert record["schema"] == "repro-ledger/1"
    for key in ("host", "nproc", "commit", "dirty", "numpy", "scipy"):
        assert key in record["stamp"]
    assert record["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    spans = (out / "spans-scf_h2o.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert {"name", "start", "end", "parent", "workload"} <= set(first)
    assert not (REPO / ".ledger_scratch").exists() or not any(
        (REPO / ".ledger_scratch").iterdir()
    )


def test_compare_a_record_with_itself(ledger, capsys):
    out, _, _ = ledger
    assert compare.main([str(out), str(out)]) == 0
    assert "worse: 0" in capsys.readouterr().out


def test_compare_verdicts():
    a = {"median": 10.0, "min": 9.9, "max": 10.1}
    assert compare.verdict(a, {"median": 10.5, "min": 10.4, "max": 10.6}, "lower", 0.1) == "same"
    assert compare.verdict(a, {"median": 11.5, "min": 11.4, "max": 11.6}, "lower", 0.1) == "worse"
    assert compare.verdict(a, {"median": 11.5, "min": 11.4, "max": 11.6}, "higher", 0.1) == "better"
    noisy = {"median": 11.5, "min": 9.0, "max": 12.0}
    assert compare.verdict(a, noisy, "lower", 0.1) == "unresolved"


def test_contract_form_prints_one_json_result():
    proc = _run(HERE / "run.py", "--workload", "scf_h2o", "--seed", "5",
                "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "benchmarks/ledger/run.py", "--workload", "scf_h2o",
                "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
