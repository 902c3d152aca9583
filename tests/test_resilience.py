"""reprochaos suite: fault injection, recovery, and checkpoint/resume.

Three layers of assertions:

1. unit tests for the resilience primitives (FaultPlan grammar, RetryPolicy
   budgets, the v2 checkpoint format);
2. a parametrized chaos sweep — every registered fault site x kind either
   *recovers bit-for-bit* or dies with a structured ResilienceError naming
   the site (a bare NaN energy is never an acceptable outcome);
3. kill-at-iteration-k + resume tests proving the mid-run checkpoints
   reproduce the uninterrupted trajectory bit for bit (SCF on H2O, invDFT
   on He, MLXC training on a toy sample).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.core.io import (
    load_invdft_state,
    load_mlxc_state,
    load_scf_state,
    save_invdft_state,
    save_mlxc_state,
)
from repro.fem.mesh import uniform_mesh
from repro.hpc.distributed import DistributedKSOperator
from repro.invdft import InverseDFT
from repro.ml.training import MLXCTrainer, assemble_sample
from repro.obs import set_enabled, trace_region
from repro.pipeline import MOLECULE_LIBRARY
from repro.resilience import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceError,
    RetryPolicy,
    active_plan,
    arm,
    chaos,
    disarm,
    fault_point,
)
from repro.xc.lda import LDA
from repro.xc.mlxc import MLXC

from tests.test_golden import _bands_chain_scf


@pytest.fixture(autouse=True)
def _disarmed():
    """No test leaks an armed plan to its neighbors."""
    disarm()
    yield
    disarm()


# ===========================================================================
# 1. primitives
# ===========================================================================
class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse("filter_block:3:nan, halo:2:drop:4,channel:5")
        assert plan is not None and len(plan.specs) == 3
        assert plan.specs[0] == FaultSpec("filter_block", 3, "nan", 1)
        assert plan.specs[1] == FaultSpec("halo", 2, "drop", 4)
        # kind defaults to the site's first supported kind
        assert plan.specs[2].kind == FAULT_SITES["channel"][0]

    def test_parse_empty_is_none(self):
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("   ") is None

    @pytest.mark.parametrize(
        "bad",
        ["warp_core:1", "channel:1:nan", "channel:0", "channel:1:raise:0",
         "channel", "channel:1:raise:1:9"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_spec_covers_window(self):
        sp = FaultSpec("halo", 3, "drop", 2)
        assert [sp.covers(i) for i in (2, 3, 4, 5)] == [False, True, True, False]

    def test_arm_disarm_and_context(self):
        assert active_plan() is None
        plan = FaultPlan([FaultSpec("channel", 1)])
        with chaos(plan) as p:
            assert p is plan and active_plan() is plan
            inner = FaultPlan([])
            assert arm(inner) is plan
            assert active_plan() is inner
        assert active_plan() is None  # context restored the pre-arm state

    def test_fault_point_unarmed_is_noop(self):
        arr = np.ones(4)
        assert fault_point("ks_apply", arr) is None
        np.testing.assert_array_equal(arr, np.ones(4))

    def test_deterministic_poisoning(self):
        plan = FaultPlan([FaultSpec("ks_apply", 2, "nan")], seed=11)
        outs = []
        for _ in range(2):
            plan.reset()
            arr = np.ones(64)
            with chaos(plan):
                assert fault_point("ks_apply", arr) is None  # invocation 1
                assert fault_point("ks_apply", arr) == "nan"  # invocation 2
            (idx,) = np.flatnonzero(np.isnan(arr))
            outs.append(int(idx))
            assert np.sum(np.isnan(arr)) == 1
        assert outs[0] == outs[1]  # same seed -> same poisoned element
        assert plan.fired == [("ks_apply", 2, "nan")]
        assert plan.invocations("ks_apply") == 2

    def test_raise_and_arrayless_poison_become_injected_fault(self):
        with chaos(FaultPlan([FaultSpec("channel", 1, "raise")])):
            with pytest.raises(InjectedFault) as ei:
                fault_point("channel")
        assert (ei.value.site, ei.value.invocation) == ("channel", 1)
        # nan at a site with no array in flight surfaces as a crash
        with chaos(FaultPlan([FaultSpec("ks_apply", 1, "nan")])):
            with pytest.raises(InjectedFault):
                fault_point("ks_apply", None)

    def test_slow_and_drop_return_their_kind(self):
        plan = FaultPlan(
            [FaultSpec("halo", 1, "drop"), FaultSpec("halo", 2, "slow")],
            slow_seconds=0.0,
        )
        arr = np.ones(3)
        with chaos(plan):
            assert fault_point("halo", arr) == "drop"
            assert fault_point("halo", arr) == "slow"
        np.testing.assert_array_equal(arr, np.ones(3))


class TestRetryPolicy:
    def test_recovers_then_reports_attempts(self):
        calls = []

        def attempt():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        assert RetryPolicy(max_retries=2).run(attempt, "channel") == "ok"
        assert len(calls) == 3

    def test_exhaustion_is_structured(self):
        def attempt():
            raise RuntimeError("always down")

        with pytest.raises(ResilienceError) as ei:
            RetryPolicy(max_retries=1).run(attempt, "minres")
        assert ei.value.site == "minres"
        assert ei.value.attempts == 2
        assert "always down" in str(ei.value)

    def test_inner_resilience_error_propagates_unwrapped(self):
        boom = ResilienceError("halo", "gave up", attempts=4)

        def attempt():
            raise boom

        calls = []
        with pytest.raises(ResilienceError) as ei:
            RetryPolicy(max_retries=5).run(
                attempt, "channel", before_retry=lambda n: calls.append(n)
            )
        assert ei.value is boom  # not re-wrapped, not retried
        assert calls == []

    def test_validation_failure_burns_a_retry(self):
        results = iter([np.array([np.nan]), np.array([1.0])])
        restored = []
        out = RetryPolicy(max_retries=1).run(
            lambda: next(results),
            "channel",
            validate=lambda r: bool(np.all(np.isfinite(r))),
            before_retry=restored.append,
        )
        np.testing.assert_array_equal(out, [1.0])
        assert restored == [1]

    def test_backoff_schedule_indexing(self):
        p = RetryPolicy(max_retries=3, backoff=(0.0, 0.1, 0.4))
        assert [p.delay(i) for i in range(4)] == [0.0, 0.1, 0.4, 0.4]
        assert RetryPolicy(backoff=()).delay(0) == 0.0


# ===========================================================================
# 2. v2 checkpoint format
# ===========================================================================
class TestCheckpointFormat:
    def test_mlxc_roundtrip(self, tmp_path):
        p = str(tmp_path / "mlxc.ckpt")
        theta = np.linspace(-1, 1, 17)
        opt = {"m": theta * 2, "v": theta**2, "t": 9}
        save_mlxc_state(
            p, epoch=4, theta=theta, opt_state=opt,
            history=[{"total": 1.0}, {"total": 0.5}], metadata={"run": "x"},
        )
        st = load_mlxc_state(p, n_params=17)
        assert st["epoch"] == 4 and st["opt_state"]["t"] == 9
        np.testing.assert_array_equal(st["theta"], theta)
        np.testing.assert_array_equal(st["opt_state"]["m"], theta * 2)
        assert st["history"][1]["total"] == 0.5
        assert st["metadata"] == {"run": "x"}

    def test_mlxc_roundtrip_fresh_optimizer(self, tmp_path):
        p = str(tmp_path / "mlxc0.ckpt")
        save_mlxc_state(
            p, epoch=0, theta=np.zeros(3),
            opt_state={"m": None, "v": None, "t": 0},
        )
        st = load_mlxc_state(p)
        assert st["opt_state"] == {"m": None, "v": None, "t": 0}

    def test_invdft_roundtrip(self, tmp_path):
        p = str(tmp_path / "inv.ckpt")
        n = 11
        v = np.random.default_rng(0).normal(size=(n, 2))
        psi = [np.eye(n)[:, :2], np.eye(n)[:, :2] * 2]
        evals = [np.array([0.1, 0.2]), np.array([0.3, 0.4])]
        save_invdft_state(
            p, nnodes=n, iteration=7, v_xc=v, v_backup=v + 1,
            err=0.25, err_prev=0.5, eta=1.5, psi=psi, evals=evals,
        )
        st = load_invdft_state(p, nnodes=n)
        assert st["iteration"] == 7 and st["eta"] == 1.5
        np.testing.assert_array_equal(st["v_xc"], v)
        np.testing.assert_array_equal(st["v_backup"], v + 1)
        np.testing.assert_array_equal(st["psi"][1], psi[1])
        np.testing.assert_array_equal(st["evals"][0], evals[0])

    def test_kind_mismatch_rejected(self, tmp_path):
        p = str(tmp_path / "wrong.ckpt")
        save_mlxc_state(
            p, epoch=0, theta=np.zeros(3),
            opt_state={"m": None, "v": None, "t": 0},
        )
        with pytest.raises(ValueError, match="mlxc"):
            load_scf_state(p)
        with pytest.raises(ValueError):
            load_invdft_state(p)

    def test_atomic_write_leaves_no_droppings(self, tmp_path):
        p = tmp_path / "clean.ckpt"
        save_mlxc_state(
            str(p), epoch=0, theta=np.zeros(2),
            opt_state={"m": None, "v": None, "t": 0},
        )
        # the temp file was renamed into place, not left beside the target
        assert sorted(f.name for f in tmp_path.iterdir()) == ["clean.ckpt"]


# ===========================================================================
# 3. SCF chaos sweep + kill/resume
# ===========================================================================
def _run_molecule(
    name,
    max_iterations=40,
    checkpoint=None,
    checkpoint_every=1,
    resume_from=None,
    retry=None,
    **schedule,
):
    symbols, positions, *_ = MOLECULE_LIBRARY[name]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    opts = dict(max_iterations=max_iterations, **schedule)
    if checkpoint is not None:
        opts.update(checkpoint_path=checkpoint, checkpoint_every=checkpoint_every)
    if retry is not None:
        opts.update(retry_policy=retry)
    calc = DFTCalculation(
        config, xc=LDA(), degree=3, cells_per_axis=3,
        options=SCFOptions(**opts),
    )
    return calc, calc.run(resume_from=resume_from)


@pytest.fixture(scope="module")
def h2_reference():
    _, res = _run_molecule("H2")
    assert res.converged
    return res


#: mid-run invocation indices that land inside the H2 SCF trajectory
_SCF_INVOCATION = {"ks_apply": 9, "filter_block": 5, "channel": 3}
_SCF_SWEEP = [
    (site, kind)
    for site, kinds in FAULT_SITES.items()
    if site in _SCF_INVOCATION
    for kind in kinds
]


@pytest.mark.chaos
@pytest.mark.parametrize("site,kind", _SCF_SWEEP, ids=lambda v: str(v))
def test_scf_single_fault_recovers_bit_identical(site, kind, h2_reference):
    """One transient fault at any SCF site heals with zero numerical trace."""
    plan = FaultPlan([FaultSpec(site, _SCF_INVOCATION[site], kind)])
    with chaos(plan):
        _, res = _run_molecule("H2")
    assert plan.fired, "the planned fault never fired"
    assert res.converged
    assert res.free_energy == h2_reference.free_energy  # bit for bit
    np.testing.assert_array_equal(res.rho_spin, h2_reference.rho_spin)


@pytest.mark.chaos
def test_faulted_seeded_kpoint_step_rewinds_bit_identical():
    """A crash in the X channel's first attempt (channel invocation 2, the
    step seeded from the Gamma channel's Ritz vectors) rewinds to an empty
    channel; the retry seeds again from the same Gamma solve, bit for bit."""
    _, reference = _bands_chain_scf()
    plan = FaultPlan([FaultSpec("channel", 2, "raise")])
    with chaos(plan):
        _, res = _bands_chain_scf()
    assert plan.fired, "the planned fault never fired"
    assert res.converged
    assert res.free_energy == reference.free_energy  # bit for bit
    np.testing.assert_array_equal(res.rho_spin, reference.rho_spin)


@pytest.mark.chaos
def test_scf_exhausted_recovery_raises_structured_error():
    """A persistent channel crash ends in a ResilienceError naming the site,
    never a silently-wrong or NaN result."""
    plan = FaultPlan([FaultSpec("channel", 2, "raise", 10_000)])
    with chaos(plan):
        with pytest.raises(ResilienceError) as ei:
            _run_molecule("H2", retry=RetryPolicy(max_retries=1))
    assert ei.value.site == "channel"
    assert ei.value.attempts >= 2


@pytest.mark.chaos
def test_scf_persistent_nan_never_escapes_as_energy():
    plan = FaultPlan([FaultSpec("ks_apply", 1, "nan", 100_000)])
    with chaos(plan):
        with pytest.raises(ResilienceError) as ei:
            _run_molecule("H2", retry=RetryPolicy(max_retries=0))
    assert ei.value.site in ("channel", "scf")


def test_h2o_kill_at_iteration_k_and_resume_bit_identical(tmp_path):
    """The ISSUE's headline guarantee: interrupt the H2O SCF at iteration k,
    resume from the checkpoint, and land on the *identical* free energy.

    The schedule is not the math: a run interrupted and resumed under an
    explicit block size lands on the bits of the uninterrupted run at the
    defaults.
    """
    _, ref = _run_molecule("H2O")
    assert ref.converged
    for schedule in ({}, {"block_size": 16}):
        ck = str(tmp_path / f"h2o-{len(schedule)}.ckpt")
        _, partial = _run_molecule(
            "H2O", max_iterations=4, checkpoint=ck, **schedule
        )
        assert not partial.converged
        _, resumed = _run_molecule("H2O", resume_from=ck, **schedule)
        assert resumed.converged
        assert resumed.n_iterations == ref.n_iterations
        assert resumed.free_energy == ref.free_energy  # bit for bit
        assert resumed.energy == ref.energy
        np.testing.assert_array_equal(resumed.rho_spin, ref.rho_spin)
        for ev_r, ev_ref in zip(resumed.eigenvalues, ref.eigenvalues):
            np.testing.assert_array_equal(ev_r, ev_ref)


@pytest.mark.chaos
def test_h2o_crash_mid_run_then_resume_bit_identical(tmp_path):
    """Same guarantee when the interruption is a *fault*, not a clean stop:
    the run dies structurally mid-iteration k+1 and the latest checkpoint
    (end of iteration k) resumes to the identical answer."""
    _, ref = _run_molecule("H2O")
    nch = len(ref.channels)
    kill_iter = 3
    ck = str(tmp_path / "h2o_crash.ckpt")
    plan = FaultPlan(
        [FaultSpec("channel", nch * kill_iter + 1, "raise", 100_000)]
    )
    with chaos(plan):
        with pytest.raises(ResilienceError):
            _run_molecule("H2O", checkpoint=ck, retry=RetryPolicy(max_retries=0))
    state = load_scf_state(ck)
    assert state["iteration"] == kill_iter
    _, resumed = _run_molecule("H2O", resume_from=ck)
    assert resumed.converged
    assert resumed.free_energy == ref.free_energy  # bit for bit


def test_resume_rejects_mesh_mismatch(tmp_path):
    ck = str(tmp_path / "h2.ckpt")
    _run_molecule("H2", max_iterations=2, checkpoint=ck)
    symbols, positions, *_ = MOLECULE_LIBRARY["H2"]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    other = DFTCalculation(config, xc=LDA(), degree=2, cells_per_axis=3)
    with pytest.raises(ValueError):
        other.run(resume_from=ck)


def test_checkpoint_every_thins_snapshots(tmp_path):
    ck = str(tmp_path / "thin.ckpt")
    _, res = _run_molecule("H2", max_iterations=5, checkpoint=ck,
                           checkpoint_every=3)
    state = load_scf_state(ck)
    # iterations 3 then (converged or final) snapshots only
    assert state["iteration"] in (3, res.n_iterations)


# ===========================================================================
# 4. halo exchange: protocol-level self-healing
# ===========================================================================
@pytest.fixture(scope="module")
def dist_problem():
    mesh = uniform_mesh((8.0,) * 3, (2, 2, 2), degree=3)
    r = mesh.node_coords - 4.0
    v = -2.0 / np.sqrt(np.einsum("ij,ij->i", r, r) + 0.8)
    op = DistributedKSOperator(mesh, nranks=4)
    op.set_potential(v)
    X = np.random.default_rng(3).standard_normal((op.n, 2))
    return op, X, op.apply(X)


@pytest.mark.chaos
@pytest.mark.parametrize("kind", FAULT_SITES["halo"])
def test_halo_fault_heals_bitwise(dist_problem, kind):
    op, X, clean = dist_problem
    plan = FaultPlan([FaultSpec("halo", 2, kind, 2)], slow_seconds=0.0)
    p2p_before = op.traffic.p2p_bytes
    prev = set_enabled(True)
    try:
        with chaos(plan), trace_region("halo-drill") as span:
            faulted = op.apply(X)
    finally:
        set_enabled(prev)
    assert plan.fired
    np.testing.assert_array_equal(clean, faulted)
    # every attempt, retransmits included, reaches the trace and the meter
    traced = sum(s.counters.get("halo_bytes", 0.0) for _, s in span.walk())
    assert traced == op.traffic.p2p_bytes - p2p_before > 0


@pytest.mark.chaos
def test_halo_persistent_loss_raises_structured(dist_problem):
    op, X, _ = dist_problem
    plan = FaultPlan([FaultSpec("halo", 1, "drop", 1_000_000)])
    with chaos(plan):
        with pytest.raises(ResilienceError) as ei:
            op.apply(X)
    assert ei.value.site == "halo"
    assert ei.value.attempts == 4  # 1 + _MAX_HALO_RETRANSMITS


# ===========================================================================
# 5. invDFT: minres faults + checkpoint/resume
# ===========================================================================
@pytest.fixture(scope="module")
def he_inverse_problem():
    """He from a spin-restricted SCF: equal spin columns, so invDFT solves
    spin 0 and mirrors it."""
    config = AtomicConfiguration(["He"], [[0, 0, 0]])
    calc = DFTCalculation(
        config, xc=LDA(), padding=6.0, cells_per_axis=3, degree=2, nstates=3
    )
    res = calc.run()
    return calc, res


@pytest.fixture(scope="module")
def li_inverse_problem():
    """Li from a spin-polarized SCF: two different spin densities, so invDFT
    runs its two-spin loop."""
    config = AtomicConfiguration(["Li"], [[0, 0, 0]])
    calc = DFTCalculation(
        config, xc=LDA(), padding=6.0, cells_per_axis=3, degree=2, nstates=3,
        spin_polarized=True,
    )
    res = calc.run()
    assert not np.array_equal(res.rho_spin[:, 0], res.rho_spin[:, 1])
    return calc, res


def _run_inverse(calc, res, retry=None, minres_maxiter=60, **kwargs):
    inv = InverseDFT(
        calc.mesh, calc.config, res.rho_spin, nstates=3,
        minres_tol=1e-6, minres_maxiter=minres_maxiter, retry_policy=retry,
    )
    return inv.run(
        res.v_xc_spin.copy(), eta=1.0, tol=1e-14, farfield="frozen", **kwargs
    )


def _check_minres_fault_recovers(calc, res, kind):
    # the fault lands mid-run whatever the solver's iteration count: the
    # index comes from counting the clean run (an empty plan only counts)
    counted = FaultPlan()
    with chaos(counted):
        ref = _run_inverse(calc, res, max_iterations=3)
    middle = max(counted.invocations("minres") // 2, 1)
    plan = FaultPlan([FaultSpec("minres", middle, kind)])
    with chaos(plan):
        out = _run_inverse(calc, res, max_iterations=3)
    assert plan.fired
    np.testing.assert_array_equal(out.v_xc, ref.v_xc)
    assert [h["density_error"] for h in out.history] == [
        h["density_error"] for h in ref.history
    ]


@pytest.mark.chaos
@pytest.mark.parametrize("kind", FAULT_SITES["minres"])
def test_minres_fault_recovers_bit_identical(he_inverse_problem, kind):
    _check_minres_fault_recovers(*he_inverse_problem, kind)


@pytest.mark.chaos
@pytest.mark.parametrize("kind", FAULT_SITES["minres"])
def test_minres_fault_recovers_bit_identical_polarized(li_inverse_problem, kind):
    _check_minres_fault_recovers(*li_inverse_problem, kind)


@pytest.mark.chaos
def test_minres_persistent_fault_raises_structured(he_inverse_problem):
    calc, res = he_inverse_problem
    plan = FaultPlan([FaultSpec("minres", 1, "raise", 10_000_000)])
    with chaos(plan):
        with pytest.raises(ResilienceError) as ei:
            _run_inverse(
                calc, res, max_iterations=2, retry=RetryPolicy(max_retries=1)
            )
    assert ei.value.site == "minres"


def test_minres_exhausted_maxiter_raises_structured(he_inverse_problem):
    """An adjoint solve that runs out of iterations is an error, not an
    answer: the update would otherwise be built from an unconverged p."""
    calc, res = he_inverse_problem
    with pytest.raises(
        ResilienceError,
        match=r"\[minres\] residual .* after 1 iterations \(maxiter 1\)",
    ) as ei:
        _run_inverse(calc, res, max_iterations=2, minres_maxiter=1)
    assert ei.value.site == "minres"


def _check_adjoint_leg_recorded(calc, res, nspins):
    """Three updates of ``nspins`` MINRES calls each, as the history and the
    trace both record them."""
    from repro.obs import InMemoryAggregator, get_tracer, set_enabled

    tracer = get_tracer()
    prev = set_enabled(True)
    agg = tracer.add_sink(InMemoryAggregator())
    try:
        out = _run_inverse(calc, res, max_iterations=3)
    finally:
        tracer.remove_sink(agg)
        set_enabled(prev)
    assert len(out.history) == 3
    for row in out.history:  # every row updated v_xc (no overshoot, no stop)
        solved, total = row["adjoint_columns"]
        assert total == 3 * nspins and 1 <= solved <= total
        assert 1 <= row["minres_iterations"] <= nspins * 60
        assert 0.0 < row["adjoint_residual"] <= 1e-6
    spans = [n for n in agg.nodes() if n.name == "MINRES"]
    calls = sum(n.calls for n in spans)
    count = {
        k: sum(n.counters[k] for n in spans)
        for k in ("iterations", "columns", "columns_skipped")
    }
    assert calls == 3 * nspins  # solved spins x three updates
    assert count["columns"] + count["columns_skipped"] == 3 * calls
    assert count["columns"] == sum(r["adjoint_columns"][0] for r in out.history)
    assert count["iterations"] == sum(r["minres_iterations"] for r in out.history)


def test_invdft_history_and_trace_record_the_adjoint_leg(he_inverse_problem):
    # He's spin columns are equal: spin 0 is solved and mirrored
    _check_adjoint_leg_recorded(*he_inverse_problem, nspins=1)


def test_invdft_history_and_trace_record_the_adjoint_leg_polarized(
    li_inverse_problem,
):
    _check_adjoint_leg_recorded(*li_inverse_problem, nspins=2)


def test_invdft_resumes_parent_format_checkpoint(he_inverse_problem, tmp_path):
    """Checkpoints written before the history rows carried the adjoint leg
    (``iteration`` / ``density_error`` / ``eta`` only) resume on the same
    trajectory; the rows they brought stay as they were."""
    calc, res = he_inverse_problem
    full = _run_inverse(calc, res, max_iterations=6)
    ck = str(tmp_path / "inv.ckpt")
    _run_inverse(calc, res, max_iterations=3, checkpoint_path=ck)
    st = load_invdft_state(ck)
    old_keys = ("iteration", "density_error", "eta")
    assert set(st["history"][0]) > set(old_keys)
    for k in ("history", "metadata"):
        st.pop(k)
    legacy = str(tmp_path / "inv_parent.ckpt")
    save_invdft_state(
        legacy, nnodes=calc.mesh.nnodes,
        history=[{k: h[k] for k in old_keys} for h in full.history[:3]], **st,
    )
    resumed = _run_inverse(calc, res, max_iterations=6, resume_from=legacy)
    np.testing.assert_array_equal(resumed.v_xc, full.v_xc)
    assert [set(h) for h in resumed.history[:3]] == [set(old_keys)] * 3
    assert resumed.history[3:] == full.history[3:]


def _check_checkpoint_resume(calc, res, tmp_path):
    full = _run_inverse(calc, res, max_iterations=6)
    ck = str(tmp_path / "inv.ckpt")
    _run_inverse(calc, res, max_iterations=3, checkpoint_path=ck)
    resumed = _run_inverse(calc, res, max_iterations=6, resume_from=ck)
    np.testing.assert_array_equal(resumed.v_xc, full.v_xc)
    assert [h["density_error"] for h in resumed.history[-3:]] == [
        h["density_error"] for h in full.history[-3:]
    ]


def test_invdft_checkpoint_resume_bit_identical(he_inverse_problem, tmp_path):
    _check_checkpoint_resume(*he_inverse_problem, tmp_path)


def test_invdft_checkpoint_resume_bit_identical_polarized(
    li_inverse_problem, tmp_path
):
    _check_checkpoint_resume(*li_inverse_problem, tmp_path)


# ===========================================================================
# 6. MLXC training: checkpoint/resume
# ===========================================================================
@pytest.fixture(scope="module")
def toy_sample():
    mesh = uniform_mesh((8.0, 8.0, 8.0), (3, 3, 3), degree=3)
    r2 = np.sum((mesh.node_coords - 4.0) ** 2, axis=1)
    rho = np.exp(-r2 / 2.0)
    rho *= 2.0 / float(mesh.integrate(rho))
    spin = 0.5 * np.stack([rho, rho], axis=1)
    v_t, exc_t = LDA().potential_and_energy(mesh, spin)
    return assemble_sample("toy", mesh, spin, v_t, exc_t)


def test_mlxc_training_resume_bit_identical(toy_sample, tmp_path):
    full_tr = MLXCTrainer([toy_sample], MLXC(seed=7))
    full_hist = full_tr.train(epochs=12, lr=3e-3)
    ck = str(tmp_path / "mlxc.ckpt")
    part_tr = MLXCTrainer([toy_sample], MLXC(seed=7))
    part_hist = part_tr.train(epochs=6, lr=3e-3, checkpoint_path=ck)
    res_tr = MLXCTrainer([toy_sample], MLXC(seed=7))
    res_hist = res_tr.train(epochs=12, lr=3e-3, resume_from=ck)
    np.testing.assert_array_equal(
        res_tr.functional.network.get_params(),
        full_tr.functional.network.get_params(),
    )
    # the restored history plus the resumed epochs replay the full curve
    assert [h["total"] for h in res_hist] == [h["total"] for h in full_hist]
    assert [h["total"] for h in part_hist] == [h["total"] for h in full_hist[:6]]
    st = load_mlxc_state(ck)
    assert st["epoch"] == 5  # last epoch of the 6-epoch partial run
