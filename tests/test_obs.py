"""Tests for reproscope (repro.obs): tracer, sinks, reports, bench harness."""

import importlib.util
import json
import pathlib
import threading
import time  # reprolint: disable-file=R009

import pytest

from repro.obs import (
    ChromeTraceSink,
    InMemoryAggregator,
    Stopwatch,
    TABLE3_ORDER,
    add_counter,
    current_span,
    get_tracer,
    is_enabled,
    kernel_region,
    kernel_totals,
    paper_label,
    render_tree,
    set_enabled,
    trace_region,
    traced,
)

REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture()
def tracer():
    """The global tracer with a guarantee of clean sink/enabled state."""
    t = get_tracer()
    before = list(t.sinks())
    prev = set_enabled(True)
    try:
        yield t
    finally:
        for sink in t.sinks():
            if sink not in before:
                t.remove_sink(sink)
        set_enabled(prev)


@pytest.fixture()
def agg(tracer):
    return tracer.add_sink(InMemoryAggregator())


# ---------------------------------------------------------------------------
# span tree
def test_nested_spans_build_tree(tracer, agg):
    with trace_region("SCF-iteration", iteration=0) as root:
        with trace_region("ChFES") as chfes:
            with trace_region("CF") as cf:
                pass
            with trace_region("RR-P"):
                pass
        with trace_region("EP"):
            pass

    assert root.parent is None
    assert [c.name for c in root.children] == ["ChFES", "EP"]
    assert [c.name for c in chfes.children] == ["CF", "RR-P"]
    assert cf.parent is chfes and chfes.parent is root
    assert cf.path() == ("SCF-iteration", "ChFES", "CF")
    assert root.find("RR-P") is chfes.children[1]
    assert root.find("nope") is None
    assert root.attrs["iteration"] == 0

    walked = [(d, s.name) for d, s in root.walk()]
    assert walked == [
        (0, "SCF-iteration"), (1, "ChFES"), (2, "CF"), (2, "RR-P"), (1, "EP"),
    ]

    assert root.duration >= sum(c.duration for c in root.children)
    assert root.self_seconds == pytest.approx(
        root.duration - sum(c.duration for c in root.children)
    )


def test_current_span_and_counters(tracer, agg):
    assert current_span() is None
    with trace_region("outer") as outer:
        assert current_span() is outer
        add_counter("flops_fp64", 100.0)
        with trace_region("inner") as inner:
            assert current_span() is inner
            add_counter("flops_fp64", 7.0)
            add_counter("flops_fp64", 3.0)
    assert current_span() is None
    assert outer.counters["flops_fp64"] == 100.0
    assert inner.counters["flops_fp64"] == 10.0


def test_span_survives_exception(tracer, agg):
    with pytest.raises(RuntimeError):
        with trace_region("outer"):
            with trace_region("inner"):
                raise RuntimeError("boom")
    # both spans were closed and the root was delivered to the sink
    node = agg.get("outer")
    assert node is not None and node.calls == 1
    assert agg.get("outer", "inner").calls == 1
    assert current_span() is None


def test_traced_decorator(tracer, agg):
    @traced("DC", kind="density")
    def work(x):
        return x * 2

    @traced()
    def unnamed():
        return 1

    assert work(21) == 42
    assert unnamed() == 1
    assert agg.get("DC").calls == 1
    # default name is the function's __qualname__
    unnamed_nodes = [n for n in agg.nodes() if n.name.endswith("unnamed")]
    assert len(unnamed_nodes) == 1 and unnamed_nodes[0].calls == 1


# ---------------------------------------------------------------------------
# aggregator
def test_aggregator_folds_repeated_paths(tracer, agg):
    for it in range(3):
        with trace_region("SCF-iteration", iteration=it):
            with trace_region("CF"):
                add_counter("flops_fp64", 5.0)

    assert agg.roots_seen == 3
    root = agg.get("SCF-iteration")
    assert root.calls == 3
    cf = agg.get("SCF-iteration", "CF")
    assert cf.calls == 3
    assert cf.counters["flops_fp64"] == 15.0
    assert agg.counter_total("flops_fp64") == 15.0
    assert agg.total_seconds("CF") == pytest.approx(cf.seconds)
    assert cf.depth == 1 and cf.name == "CF"
    # nodes() is sorted: parents before children
    names = [n.path for n in agg.nodes()]
    assert names.index(("SCF-iteration",)) < names.index(("SCF-iteration", "CF"))

    agg.clear()
    assert agg.roots_seen == 0 and agg.nodes() == []


def test_render_tree_and_kernel_totals(tracer, agg):
    with trace_region("SCF-iteration"):
        with trace_region("ChFES"):
            with trace_region("CF"):
                add_counter("flops_fp64", 2e9)
        with trace_region("EP"):
            add_counter("iterations", 12)
        with trace_region("Mix"):
            pass

    text = render_tree(agg, title="profile")
    lines = text.splitlines()
    assert lines[0] == "profile"
    assert "region" in lines[1] and "calls" in lines[1]
    assert any(l.startswith("SCF-iteration") for l in lines)
    assert any("    CF" in l and "GFLOP" in l for l in lines)
    assert any("  EP" in l and "its" in l for l in lines)

    totals = kernel_totals(agg)
    assert set(totals) == {"CF", "EP", "Others"}  # Mix folds into Others
    assert all(v >= 0.0 for v in totals.values())
    # structural spans carry no Table 3 label
    assert paper_label("SCF-iteration") is None
    assert paper_label("ChFES") is None
    assert paper_label("Mix") == "Others"
    assert paper_label("CF") == "CF"
    assert "Others" in TABLE3_ORDER


# ---------------------------------------------------------------------------
# Chrome trace sink
def test_chrome_trace_is_valid_json(tracer, tmp_path):
    out = tmp_path / "trace.json"
    sink = get_tracer().add_sink(
        ChromeTraceSink(out, epoch=get_tracer().epoch, process_name="test")
    )
    with trace_region("SCF-iteration"):
        with trace_region("CF"):
            pass
    get_tracer().remove_sink(sink)
    sink.close()

    doc = json.loads(out.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert meta and meta[0]["name"] == "process_name"
    assert meta[0]["args"]["name"] == "test"
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"SCF-iteration", "CF"}
    for e in complete:
        assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
        assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    # child is contained within the parent on the timeline
    by_name = {e["name"]: e for e in complete}
    parent, child = by_name["SCF-iteration"], by_name["CF"]
    assert parent["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-3


# ---------------------------------------------------------------------------
# thread safety
def test_threaded_spans_stay_separate(tracer, agg):
    n_threads, n_spans = 4, 25
    errors = []

    def worker(tid):
        try:
            for i in range(n_spans):
                with trace_region("worker-root", tid=tid) as root:
                    with trace_region("leaf"):
                        pass
                    assert root.thread_id == threading.get_ident()
                    assert len(root.children) == 1
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert agg.roots_seen == n_threads * n_spans
    assert agg.get("worker-root").calls == n_threads * n_spans
    assert agg.get("worker-root", "leaf").calls == n_threads * n_spans


# ---------------------------------------------------------------------------
# kill switch + overhead
def test_disabled_mode_is_noop_but_keeps_durations(tracer, agg):
    set_enabled(False)
    assert not is_enabled()
    with trace_region("CF") as span:
        add_counter("flops_fp64", 1.0)  # silently dropped
        assert current_span() is None
    assert span.duration >= 0.0  # timing still works for history/ledger use
    assert agg.roots_seen == 0  # nothing delivered to sinks

    set_enabled(True)
    with trace_region("CF"):
        pass
    assert agg.roots_seen == 1


def test_set_enabled_returns_previous(tracer):
    prev = set_enabled(False)
    assert prev is True
    assert set_enabled(prev) is False
    assert is_enabled()


def test_disabled_overhead_is_small(tracer):
    """REPRO_TRACE=0 spans must stay within noise of bare clock reads."""
    n = 2000

    def bare():
        t0 = time.perf_counter()
        return time.perf_counter() - t0

    def spanned():
        with trace_region("x") as s:
            pass
        return s.duration

    bare()
    spanned()  # warm up
    set_enabled(False)
    w = Stopwatch()
    for _ in range(n):
        bare()
    t_bare = w.restart()
    for _ in range(n):
        spanned()
    t_span = w.elapsed()
    # loose guard: disabled spans cost a couple of clock reads + one alloc
    assert t_span < 50 * max(t_bare, 1e-5)


# ---------------------------------------------------------------------------
# ledger integration + stopwatch
class _FakeLedger:
    def __init__(self):
        self.charges = []

    def charge_seconds(self, name, seconds):
        self.charges.append((name, seconds))


def test_kernel_region_charges_ledger(tracer, agg):
    ledger = _FakeLedger()
    with kernel_region("CF", ledger):
        pass
    with kernel_region("RR-P", None):
        pass
    assert len(ledger.charges) == 1
    name, seconds = ledger.charges[0]
    assert name == "CF" and seconds >= 0.0
    assert agg.get("CF").calls == 1 and agg.get("RR-P").calls == 1


def test_kernel_region_charges_ledger_when_disabled(tracer, agg):
    set_enabled(False)
    ledger = _FakeLedger()
    with kernel_region("CF", ledger):
        pass
    assert len(ledger.charges) == 1 and ledger.charges[0][0] == "CF"
    assert agg.roots_seen == 0


def test_stopwatch():
    w = Stopwatch()
    first = w.restart()
    second = w.elapsed()
    assert first >= 0.0 and second >= 0.0


# ---------------------------------------------------------------------------
# benchmark harness schema
def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", REPO / "benchmarks" / "_harness.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_harness_schema(tmp_path, monkeypatch):
    harness = _load_harness()
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)

    path = harness.write_result(
        "unit", params={"n": 4}, wall_seconds=0.25, metrics={"gflops": 1.5}
    )
    assert path == tmp_path / "BENCH_unit.json"
    harness.write_result("unit", params={"n": 8}, wall_seconds=0.5)

    records = harness.read_results("unit")
    assert len(records) == 2
    for rec in records:
        assert tuple(rec) == harness.RECORD_KEYS
        assert rec["schema"] == harness.SCHEMA
        assert rec["name"] == "unit"
    assert records[0]["params"] == {"n": 4}
    assert records[0]["metrics"] == {"gflops": 1.5}
    assert records[1]["wall_seconds"] == 0.5
    assert harness.read_results("missing") == []
    # the file itself is a plain JSON array — external tools can load it
    assert isinstance(json.loads(path.read_text()), list)
