"""reprosan: runtime race-sanitizer unit, chaos and zero-overhead tests."""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.tools import sanitize
from repro.tools.sanitize import RaceReport, Sanitizer


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with the sanitizer disarmed."""
    sanitize.disarm()
    yield
    sanitize.disarm()


# ---------------------------------------------------------------------------
# arming
# ---------------------------------------------------------------------------
def test_unarmed_by_default():
    assert not sanitize.armed()
    assert sanitize.state() is None
    assert sanitize._STATE is None


def test_arm_is_idempotent_and_disarm_clears():
    san = sanitize.arm()
    assert sanitize.arm() is san
    assert sanitize.armed()
    sanitize.disarm()
    assert not sanitize.armed()


def test_sanitized_context_restores_previous_state():
    outer = sanitize.arm()
    with sanitize.sanitized() as inner:
        assert inner is not outer
        assert sanitize.state() is inner
    assert sanitize.state() is outer


def test_env_variable_arms_at_import():
    code = (
        "from repro.tools import sanitize; "
        "import sys; sys.exit(0 if sanitize.armed() else 3)"
    )
    for env_val, expected in (("1", 0), ("true", 0), ("", 3), ("0", 3)):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={
                "PYTHONPATH": "src",
                "PATH": "/usr/bin:/bin",
                "REPRO_SANITIZE": env_val,
            },
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert proc.returncode == expected, (env_val, proc.returncode)


# ---------------------------------------------------------------------------
# write windows
# ---------------------------------------------------------------------------
def test_write_window_reentrant_and_versioned():
    san = Sanitizer()
    san.write_begin("tag")
    san.write_begin("tag")  # same thread: reentrant
    san.write_end("tag")
    assert san.write_version("tag") == 0  # still open
    san.write_end("tag")
    assert san.write_version("tag") == 1
    san.write_begin("tag")
    san.write_end("tag")
    assert san.write_version("tag") == 2


def test_write_end_without_begin_is_tolerated():
    san = Sanitizer()
    san.write_end("never-opened")
    assert san.write_version("never-opened") == 0


def test_concurrent_write_window_raises_race_report():
    """Deterministic collision: thread A holds the window across a
    barrier, so thread B's entry is guaranteed to overlap."""
    san = Sanitizer()
    barrier = threading.Barrier(2)
    caught: list[Exception] = []

    def holder():
        san.write_begin("ledger")
        barrier.wait()
        time.sleep(0.2)
        san.write_end("ledger")

    def intruder():
        barrier.wait()
        try:
            san.write_begin("ledger")
        except RaceReport as exc:
            caught.append(exc)

    a = threading.Thread(target=holder, name="holder")
    b = threading.Thread(target=intruder, name="intruder")
    a.start()
    b.start()
    a.join()
    b.join()
    assert len(caught) == 1
    report = caught[0]
    assert report.kind == "concurrent-write"
    assert report.resource == "ledger"
    assert report.holder == "holder"
    assert report.intruder == "intruder"


# ---------------------------------------------------------------------------
# buffer ownership
# ---------------------------------------------------------------------------
def test_same_thread_ownership_passes():
    san = Sanitizer()
    buf = np.zeros(4)
    san.claim(buf, "pool:x")
    san.assert_owned(buf)  # same thread: fine
    san.release(buf)
    san.assert_owned(buf)  # unclaimed: fine


def test_cross_thread_buffer_use_raises():
    san = Sanitizer()
    buf = np.zeros(4)
    san.claim(buf, "pool:x")
    caught: list[Exception] = []

    def use():
        try:
            san.assert_owned(buf, context="cross-thread test")
        except RaceReport as exc:
            caught.append(exc)

    t = threading.Thread(target=use, name="foreign")
    t.start()
    t.join()
    assert len(caught) == 1
    assert caught[0].kind == "foreign-buffer"
    assert caught[0].intruder == "foreign"


def test_workspace_get_claims_when_armed():
    from repro.fem.workspace import Workspace

    ws = Workspace()
    with sanitize.sanitized() as san:
        buf = ws.get("t", (8,), np.float64)
        caught: list[Exception] = []

        def use():
            try:
                san.assert_owned(buf)
            except RaceReport as exc:
                caught.append(exc)

        t = threading.Thread(target=use)
        t.start()
        t.join()
        assert len(caught) == 1  # pooled buffers are thread-owned


# ---------------------------------------------------------------------------
# chaos: a seeded unlocked race is detected
# ---------------------------------------------------------------------------
@pytest.mark.chaos
def test_seeded_ledger_race_is_detected():
    """Break FlopLedger's lock on purpose; the write windows must catch
    the overlapping mutation as a structured RaceReport."""
    import contextlib

    from repro.hpc.flops import FlopLedger

    ledger = FlopLedger()
    ledger._lock = contextlib.nullcontext()  # the seeded bug

    class SlowTally(dict):
        def __missing__(self, key):
            v = self[key] = None
            return v

        def __getitem__(self, key):
            time.sleep(0.1)  # widen the unlocked window
            from repro.hpc.flops import KernelTally

            if key not in self.keys():
                dict.__setitem__(self, key, KernelTally())
            return dict.get(self, key)

    ledger._tally = SlowTally()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    caught: list[Exception] = []
    barrier = threading.Barrier(2)

    def add():
        barrier.wait()
        try:
            ledger.add("CF", 1.0)
        except RaceReport as exc:
            caught.append(exc)

    try:
        with sanitize.sanitized():
            threads = [threading.Thread(target=add) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert len(caught) >= 1
    assert caught[0].kind == "concurrent-write"
    assert "FlopLedger" in caught[0].resource


def test_locked_ledger_is_race_free_when_armed():
    from repro.hpc.flops import FlopLedger

    ledger = FlopLedger()
    with sanitize.sanitized() as san:
        threads = [
            threading.Thread(
                target=lambda: [ledger.add("CF", 1.0) for _ in range(200)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert san.write_version(ledger._san_tag) == 800
    assert ledger["CF"].flops_fp64 == 800.0


# ---------------------------------------------------------------------------
# zero overhead unarmed + numerical transparency armed
# ---------------------------------------------------------------------------
def test_unarmed_instrumentation_never_touches_sanitizer(monkeypatch):
    """Unarmed, the guarded sites must not call into the Sanitizer at
    all (the ``_STATE is None`` fast path, like ``_faults._PLAN``)."""

    def boom(self, *a, **k):  # pragma: no cover - must never run
        raise AssertionError("sanitizer touched while disarmed")

    monkeypatch.setattr(Sanitizer, "write_begin", boom)
    monkeypatch.setattr(Sanitizer, "claim", boom)
    monkeypatch.setattr(Sanitizer, "assert_owned", boom)

    from repro.fem.workspace import Workspace
    from repro.hpc.flops import FlopLedger
    from repro.obs.tracer import Tracer

    ledger = FlopLedger()
    ledger.add("CF", 1.0)
    ledger.charge_seconds("CF", 0.5)
    ledger.reset()
    ws = Workspace()
    ws.get("t", (4,), np.float64)
    tr = Tracer()
    sink = tr.add_sink(object())
    tr.remove_sink(sink)


def _h2_result():
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions
    from repro.xc.lda import LDA

    config = AtomicConfiguration(["H", "H"], [[0, 0, 0], [1.4, 0, 0]])
    calc = DFTCalculation(
        config,
        xc=LDA(),
        padding=5.0,
        cells_per_axis=3,
        degree=2,
        spin_polarized=True,  # two channels, two write windows per step
        options=SCFOptions(max_iterations=2),
    )
    return calc.run()


def test_armed_parallel_scf_is_clean_and_bit_identical():
    """Two SCFs on two threads of one process, as the serve workers run
    them: the instrumented hot path holds its locks (no RaceReport), and
    arming the sanitizer does not perturb the numerics."""
    serial = _h2_result()
    outcomes: list = [None, None]

    def solve(i: int) -> None:
        try:
            outcomes[i] = _h2_result()
        except BaseException as exc:  # re-raised on the main thread below
            outcomes[i] = exc

    with sanitize.sanitized():
        threads = [threading.Thread(target=solve, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for armed in outcomes:
        if isinstance(armed, BaseException):
            raise armed  # a RaceReport on any unlocked overlap
        assert armed.free_energy == serial.free_energy
        assert np.array_equal(armed.rho_spin, serial.rho_spin)
