"""Batched subspace engine: bit-identity, mixed-precision bounds, HX reuse.

The engine's contract is strict: every kernel (gram, projection, rotation)
must be *bitwise* identical to the reference block loops it replaces, in
FP64 and in the mixed FP64-diagonal/FP32-off-diagonal layout, across
ragged shapes (nvec not divisible by block_size, nvec < block_size,
block_size 1).  On top of that sit the fused CholGS→RR stage (correctness
against the reference pipeline, metered QR rescue) and the HX carry (the
exact one-apply-per-iteration saving, checkpoint round-trip).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core.chebyshev import chebyshev_filter
from repro.core.subspace import (
    adjust_carried_hx,
    batched_gram,
    batched_rotate,
    cholesky_orthonormalize,
    fused_cholgs_rr,
)
from repro.core.io import load_scf_state, save_scf_state
from repro.hpc.flops import UNCOUNTED_KERNELS, FlopLedger
from repro.precision import f32_dtype, fp32_mirror
from repro.tools.contracts import ContractViolation

from tests.reference import (
    reference_cf_term,
    reference_cholgs,
    reference_gram,
    reference_projected_hamiltonian,
    reference_rayleigh_ritz,
    reference_rotate,
)

REPO = pathlib.Path(__file__).resolve().parent.parent

#: (nvec, block_size) pairs covering full grids, ragged tails,
#: nvec < block_size, nvec not divisible by block_size, and block_size 1
SHAPES = [
    (40, 8),
    (37, 8),
    (5, 8),
    (33, 32),
    (17, 16),
    (9, 4),
    (2, 1),
    (128, 64),
]


def _block(n, nvec, seed, complex_):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, nvec))
    if complex_:
        X = X + 1j * rng.standard_normal((n, nvec))
    return X


# ---------------------------------------------------------------------------
# bit-identity of every kernel against the reference block loops
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "bloch"])
@pytest.mark.parametrize("mixed", [False, True], ids=["fp64", "mixed"])
@pytest.mark.parametrize("nvec,bs", SHAPES)
def test_gram_bitwise_identical(nvec, bs, mixed, complex_):
    X = _block(211, nvec, seed=nvec * bs + mixed, complex_=complex_)
    ref = reference_gram(X, block_size=bs, mixed_precision=mixed)
    got = batched_gram(X, block_size=bs, mixed_precision=mixed)
    assert np.array_equal(ref, got)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "bloch"])
@pytest.mark.parametrize("mixed", [False, True], ids=["fp64", "mixed"])
@pytest.mark.parametrize("nvec,bs", SHAPES)
def test_projection_bitwise_identical(nvec, bs, mixed, complex_):
    X = _block(211, nvec, seed=3 * nvec + bs, complex_=complex_)
    Y = _block(211, nvec, seed=7 * nvec + bs + 1, complex_=complex_)
    ref = reference_projected_hamiltonian(X, Y, block_size=bs, mixed_precision=mixed)
    got = batched_gram(X, Y, block_size=bs, mixed_precision=mixed, kernel="RR-P")
    got = 0.5 * (got + got.conj().T)
    assert np.array_equal(ref, got)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "bloch"])
@pytest.mark.parametrize("mixed", [False, True], ids=["fp64", "mixed"])
@pytest.mark.parametrize("nvec,bs", SHAPES)
def test_rotate_bitwise_identical(nvec, bs, mixed, complex_):
    X = _block(211, nvec, seed=11 * nvec + bs, complex_=complex_)
    rng = np.random.default_rng(13 * nvec + bs)
    Q = rng.standard_normal((nvec, nvec))
    if complex_:
        Q = Q + 1j * rng.standard_normal((nvec, nvec))
    ref = reference_rotate(X, Q, block_size=bs, mixed_precision=mixed)
    got = batched_rotate(X, Q, block_size=bs, mixed_precision=mixed)
    # the engine writes products directly where the reference computes
    # 0.0 + x; the only tolerated difference is the sign of exact zeros
    assert np.array_equal(ref, got) or np.array_equal(ref + 0.0, got + 0.0)


def test_cholesky_orthonormalize_engine_matches_reference():
    for complex_ in (False, True):
        for mixed in (False, True):
            X = _block(151, 24, seed=21 + complex_, complex_=complex_)
            led_f, led_s = FlopLedger(), FlopLedger()
            fast = cholesky_orthonormalize(
                X, block_size=7, mixed_precision=mixed, ledger=led_f
            )
            slow = reference_cholgs(
                X, block_size=7, mixed_precision=mixed, ledger=led_s
            )
            assert np.array_equal(fast + 0.0, slow + 0.0)
            # ledger totals are label-for-label identical
            for k in ("CholGS-S", "CholGS-O"):
                assert led_f[k].flops_fp64 == led_s[k].flops_fp64
                assert led_f[k].flops_fp32 == led_s[k].flops_fp32


# ---------------------------------------------------------------------------
# precision helpers
def test_f32_dtype_map():
    assert f32_dtype(np.float64) == np.float32
    assert f32_dtype(np.complex128) == np.complex64
    assert f32_dtype(np.float32) == np.float32


def test_fp32_mirror_slices_match_per_block_astype():
    X = _block(64, 20, seed=5, complex_=True)
    mirror = fp32_mirror(X)
    assert mirror.dtype == np.complex64
    for sl in (slice(0, 7), slice(7, 20)):
        assert np.array_equal(mirror[:, sl], X[:, sl].astype(np.complex64))
    out = np.empty_like(mirror)
    assert fp32_mirror(X, out=out) is out
    assert np.array_equal(out, mirror)


# ---------------------------------------------------------------------------
# mixed-precision error bounds across block sizes
@pytest.mark.parametrize("bs", [4, 8, 16, 32])
def test_mixed_precision_orthonormality_loss_bounded(bs):
    X = _block(300, 32, seed=bs, complex_=False)
    Y = cholesky_orthonormalize(X, block_size=bs, mixed_precision=True)
    err = np.linalg.norm(Y.T @ Y - np.eye(32))
    assert err < 5e-5  # FP32 off-diagonal blocks only
    Y64 = cholesky_orthonormalize(X, block_size=bs, mixed_precision=False)
    assert np.linalg.norm(Y64.T @ Y64 - np.eye(32)) < 1e-12


@pytest.mark.parametrize("bs", [4, 8, 16])
def test_mixed_precision_ritz_drift_bounded(bs):
    rng = np.random.default_rng(40 + bs)
    A = rng.standard_normal((120, 120))
    H = 0.5 * (A + A.T)
    W = rng.standard_normal((120, 24))
    HW = H @ W
    op = DenseOp(H)
    e64, _, _ = fused_cholgs_rr(W, HW.copy(), op=op, block_size=bs)
    e32, _, _ = fused_cholgs_rr(W, HW.copy(), op=op, block_size=bs, mixed_precision=True)
    assert np.max(np.abs(e64 - e32)) < 1e-3 * max(1.0, np.abs(e64).max())


# ---------------------------------------------------------------------------
# fused CholGS -> RR
class DenseOp:
    def __init__(self, H):
        self.H = np.asarray(H)
        self.dtype = self.H.dtype
        self.n = H.shape[0]
        self.applies = 0

    def apply(self, X, out=None, **term):
        self.applies += 1
        Y = reference_cf_term(self.H @ X, X, **term)
        if out is not None:
            out[...] = Y
            return out
        return Y

    def diagonal(self):
        return np.real(np.diag(self.H))


def _hermitian(n, seed, complex_=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if complex_:
        A = A + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "bloch"])
def test_fused_matches_reference_pipeline(complex_):
    """fused(W, HW) == CholGS(W) then RR, to solver accuracy, zero applies."""
    H = _hermitian(90, 3, complex_)
    op = DenseOp(H)
    W = _block(90, 14, seed=4, complex_=complex_)
    HW = op.apply(W)
    op.applies = 0
    evals, X, HX = fused_cholgs_rr(W, HW, op=op, block_size=5)
    assert op.applies == 0  # the whole stage reuses the precomputed HW
    Xr = reference_cholgs(W, block_size=5)
    evals_ref, Xref = reference_rayleigh_ritz(op, Xr, block_size=5)
    np.testing.assert_allclose(evals, evals_ref, rtol=1e-9, atol=1e-9)
    # orthonormality and the HX invariant
    assert np.linalg.norm(X.conj().T @ X - np.eye(14)) < 1e-10
    np.testing.assert_allclose(HX, H @ X, rtol=1e-8, atol=1e-8)
    # same Ritz vectors up to phase
    overlap = np.abs(np.diag(Xref.conj().T @ X))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-7)


def test_fused_rejects_hw_of_another_shape():
    """The engine's shape contract guards the fused stage: an ``HW`` that is
    not ``W``'s shape is refused instead of projected."""
    H = _hermitian(60, 9)
    op = DenseOp(H)
    W = _block(60, 8, seed=10, complex_=False)
    for HW in (H @ W[:, :7], (H @ W)[:59]):
        with pytest.raises(ContractViolation):
            fused_cholgs_rr(W, HW, op=op, block_size=4)


def test_qr_fallback_is_metered():
    """An indefinite overlap triggers the QR rescue under its own label."""
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 6))
    X[:, 3] = X[:, 0]  # exactly singular overlap -> Cholesky fails
    ledger = FlopLedger()
    Y = cholesky_orthonormalize(X, block_size=3, ledger=ledger)
    assert np.linalg.norm(Y.T @ Y - np.eye(6)) < 1e-10
    tally = ledger["CholGS-QR"]
    assert tally.calls >= 1
    assert tally.seconds > 0.0
    assert tally.flops_total == 0.0  # uncounted, like CholGS-CI
    assert "CholGS-QR" in UNCOUNTED_KERNELS


def test_fused_qr_fallback_with_op_refresh():
    H = _hermitian(40, 6)
    op = DenseOp(H)
    rng = np.random.default_rng(3)
    W = rng.standard_normal((40, 5))
    W[:, 4] = W[:, 1]
    ledger = FlopLedger()
    evals, X, HX = fused_cholgs_rr(W, H @ W, op=op, block_size=2, ledger=ledger)
    assert ledger["CholGS-QR"].calls >= 1
    assert np.linalg.norm(X.T @ X - np.eye(5)) < 1e-10
    np.testing.assert_allclose(HX, H @ X, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# HX carry: the adjustment identity and the exact apply saving
def test_adjust_carried_hx_identity():
    H = _hermitian(50, 8)
    psi = _block(50, 6, seed=9, complex_=False)
    v_old = np.random.default_rng(1).standard_normal(50)
    v_new = np.random.default_rng(2).standard_normal(50)
    h_old = (H + np.diag(v_old)) @ psi
    got = adjust_carried_hx(h_old, psi, v_new - v_old)
    want = (H + np.diag(v_new)) @ psi
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert adjust_carried_hx(None, psi, v_new) is None
    assert adjust_carried_hx(h_old, psi, np.zeros(50)) is h_old


def test_filter_accepts_carried_hx0():
    H = _hermitian(70, 12)
    op = DenseOp(H)
    X = _block(70, 8, seed=12, complex_=False)
    ref = chebyshev_filter(op, X, 6, 1.0, 40.0, -1.0, block_size=3)
    n_ref = op.applies
    op.applies = 0
    # block-consistent carry: bitwise equal to what op.apply would produce
    # per column block (a single 8-column GEMM differs at the BLAS level)
    hx0 = np.hstack([H @ X[:, i : i + 3] for i in range(0, 8, 3)])
    op.applies = 0
    got = chebyshev_filter(op, X, 6, 1.0, 40.0, -1.0, block_size=3, hx0=hx0)
    assert np.array_equal(ref, got)  # same arithmetic, first apply replaced
    assert op.applies == n_ref - 3  # one apply saved per column block


def _count_scf_applies(monkeypatch, n_scf: int, ledger=None):
    """Apply census of a short fixed-iteration H2 SCF.

    Returns a dict: ``applies`` (full-subspace, i.e. 2-D, applies),
    ``columns`` (every column any ``KSOperator.apply`` saw, Lanczos vectors
    included), ``flops`` (``cell_gemm`` FLOPs the ledger took in during
    those calls) and ``unit`` (the metered FLOPs of one column).
    """
    import repro.core.scf as scf_module
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation, SCFOptions
    from repro.fem.assembly import KSOperator

    counts = {"block_columns": 0, "columns": 0, "flops": 0.0, "unit": None}
    orig = KSOperator.apply

    def metered() -> float:
        return ledger["cell_gemm"].flops_total if ledger is not None else 0.0

    def counting_apply(self, X, out=None, **term):
        ncols = X.shape[1] if X.ndim == 2 else 1
        if X.ndim == 2:
            counts["block_columns"] += ncols
        counts["columns"] += ncols
        before = metered()
        result = orig(self, X, out=out, **term)
        counts["flops"] += metered() - before
        if counts["unit"] is None:
            counts["unit"] = (metered() - before) / ncols
        return result

    monkeypatch.setattr(KSOperator, "apply", counting_apply)
    monkeypatch.setattr(scf_module, "CHEB_DEGREE", 6)
    monkeypatch.setattr(scf_module, "N_INIT_PASSES", 2)
    config = AtomicConfiguration(["H", "H"], [[0, 0, 0], [1.4, 0, 0]])
    calc = DFTCalculation(
        config,
        padding=5.0,
        cells_per_axis=3,
        degree=2,
        options=SCFOptions(
            max_iterations=n_scf,
            density_tol=1e-300,
            energy_tol=1e-300,
        ),
        ledger=ledger,
    )
    res = calc.run()
    nvec = res.channels[0].psi.shape[1]
    assert counts["block_columns"] % nvec == 0
    counts["applies"] = counts["block_columns"] // nvec
    return counts


def test_chfes_saves_exactly_one_apply_per_iteration(monkeypatch):
    """One operator application of the subspace per RR stage is elided.

    With m = CHEB_DEGREE, p = N_INIT_PASSES and N SCF iterations, a filter
    plus a standalone Rayleigh-Ritz would issue (p + N - 1)(m + 1)
    full-subspace applies; the SCF carries HX through the fused subspace
    stage and issues exactly p·m + 1 + (N-1)·m.
    """
    m, p, N = 6, 2, 3
    applies = _count_scf_applies(monkeypatch, n_scf=N)["applies"]
    assert applies == p * m + 1 + (N - 1) * m
    # one fewer per filtering pass, except the cold-start pass
    assert (p + N - 1) * (m + 1) - applies == p + (N - 1) - 1


def test_scf_ledger_shows_fewer_cell_gemm_flops(monkeypatch):
    """The elided applies are absent from the FlopLedger's cell_gemm tally:
    the Hamiltonian's share is exactly (columns applied) x (one column)."""
    m, p, N = 6, 2, 2
    census = _count_scf_applies(monkeypatch, n_scf=N, ledger=FlopLedger())
    assert census["applies"] == p * m + 1 + (N - 1) * m
    assert census["unit"] > 0
    assert census["flops"] == census["unit"] * census["columns"]


def _count_chain_applies(monkeypatch, n_scf: int):
    """Per-channel apply census of a short fixed-iteration H-chain SCF at
    Gamma and X.

    Returns ``(applies, filters)``: full-subspace applies per channel, and
    per channel the ``(degree, carried hx0)`` of every ``chebyshev_filter``
    call in order.
    """
    import repro.core.scf as scf_module
    from repro.fem.assembly import KSOperator

    from tests.test_golden import _bands_chain_scf

    block_columns: dict[int, int] = {}
    filters: dict[int, list] = {}
    orig_apply, orig_filter = KSOperator.apply, scf_module.chebyshev_filter

    def counting_apply(self, X, out=None, **term):
        if X.ndim == 2:
            block_columns[id(self)] = block_columns.get(id(self), 0) + X.shape[1]
        return orig_apply(self, X, out=out, **term)

    def recording_filter(op, X, m, *args, hx0=None, **kw):
        filters.setdefault(id(op), []).append((m, hx0 is not None))
        return orig_filter(op, X, m, *args, hx0=hx0, **kw)

    monkeypatch.setattr(KSOperator, "apply", counting_apply)
    monkeypatch.setattr(scf_module, "chebyshev_filter", recording_filter)
    monkeypatch.setattr(scf_module, "CHEB_DEGREE", 6)
    monkeypatch.setattr(scf_module, "N_INIT_PASSES", 2)
    _, res = _bands_chain_scf(
        max_iterations=n_scf, density_tol=1e-300, energy_tol=1e-300
    )
    assert res.n_iterations == n_scf
    applies, calls = [], []
    for ch in res.channels:
        nvec = ch.psi.shape[1]
        assert block_columns[id(ch.op)] % nvec == 0
        applies.append(block_columns[id(ch.op)] // nvec)
        calls.append(filters[id(ch.op)])
    return applies, calls


def test_later_kpoint_first_step_is_one_warm_pass(monkeypatch):
    """The X channel starts from the Gamma channel's Bloch-lifted Ritz
    vectors: one filtering pass on its first SCF step instead of p.

    With m = CHEB_DEGREE, p = N_INIT_PASSES and N SCF iterations, the Gamma
    channel keeps its census p·m + 1 + (N-1)·m (see
    ``test_chfes_saves_exactly_one_apply_per_iteration``).  The X channel's
    first step is one pass from the lifted block, which has no carried HX to
    stand in for the filter's first apply: m₁ applies, where m₁ =
    ``capped_degree(m, a, b, a0)`` in the Gamma channel's Ritz window, plus
    the fused CholGS -> RR apply; every later step is a warm one of m.  So
    X issues m₁ + 1 + (N-1)·m and saves (p-1)·m + (m - m₁) over a cold start.
    """
    m, p, N = 6, 2, 3
    (gamma, x), (gamma_calls, x_calls) = _count_chain_applies(monkeypatch, N)
    assert gamma == p * m + 1 + (N - 1) * m
    assert len(gamma_calls) == p + N - 1
    # one pass per SCF step; only the first one runs without a carried HX
    assert [hx for _, hx in x_calls] == [False] + [True] * (N - 1)
    m1 = x_calls[0][0]
    assert 1 <= m1 <= m and all(deg == m for deg, _ in x_calls[1:])
    assert x == m1 + 1 + (N - 1) * m
    assert (p * m + 1 + (N - 1) * m) - x == (p - 1) * m + (m - m1)


# ---------------------------------------------------------------------------
# checkpoint round-trip of the carry
def _mesh():
    from repro.fem.mesh import uniform_mesh

    return uniform_mesh((4.0, 4.0, 4.0), (2, 2, 2), 2, pbc=(True, True, True))


def test_scf_state_roundtrips_hpsi(tmp_path):
    mesh = _mesh()
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((mesh.nnodes, 4))
    hpsi = rng.standard_normal((mesh.nnodes, 4))
    hpsi_v = rng.standard_normal(mesh.nnodes)
    ch = {
        "kfrac": (0.0, 0.0, 0.0), "weight": 1.0, "spin": None,
        "psi": psi, "evals": np.arange(4.0),
        "hpsi": hpsi, "hpsi_v": hpsi_v,
    }
    path = tmp_path / "state.npz"
    save_scf_state(
        str(path), mesh, iteration=1, converged=False, free_energy=-1.0,
        rho_spin=np.zeros((mesh.nnodes, 1)), fermi_level=0.0, entropy=0.0,
        occupations=[np.ones(4)], channels=[ch], mixer_rho=[], mixer_res=[],
    )
    state = load_scf_state(str(path), mesh)
    loaded = state["channels"][0]
    assert np.array_equal(loaded["hpsi"], hpsi)
    assert np.array_equal(loaded["hpsi_v"], hpsi_v)
    # channels without a carry round-trip to None
    ch["hpsi"] = ch["hpsi_v"] = None
    save_scf_state(
        str(path), mesh, iteration=1, converged=False, free_energy=-1.0,
        rho_spin=np.zeros((mesh.nnodes, 1)), fermi_level=0.0, entropy=0.0,
        occupations=[np.ones(4)], channels=[ch], mixer_rho=[], mixer_res=[],
    )
    loaded = load_scf_state(str(path), mesh)["channels"][0]
    assert loaded["hpsi"] is None and loaded["hpsi_v"] is None


# ---------------------------------------------------------------------------
# bench_subspace smoke test (tier 1): tiny config, schema validation
def _load_bench(tmp_path, monkeypatch):
    bench_dir = REPO / "benchmarks"
    monkeypatch.syspath_prepend(str(bench_dir))
    sys.modules.pop("_harness", None)
    import _harness

    monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path)
    spec = importlib.util.spec_from_file_location(
        "bench_subspace_smoke", bench_dir / "bench_subspace.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, _harness


def test_bench_subspace_smoke_schema(tmp_path, monkeypatch):
    mod, harness = _load_bench(tmp_path, monkeypatch)
    tiny = {"degree": 2, "cells": 3, "nvec": 8, "block_size": 4, "cheb_degree": 3}
    path = mod.main(params=tiny, repeats=1)
    assert path == tmp_path / "BENCH_subspace.json"
    records = json.loads(path.read_text())
    assert isinstance(records, list) and len(records) == 1
    record = records[-1]
    assert tuple(record) == harness.RECORD_KEYS
    assert record["schema"] == harness.SCHEMA == "repro-bench/1"
    assert record["name"] == "subspace"
    assert record["params"] == tiny
    stage = record["metrics"]["stage"]
    assert {r["mixed_precision"] for r in stage} == {False, True}
    for r in stage:
        assert r["reference_stage_seconds"] > 0
        assert r["engine_stage_seconds"] > 0
    it = record["metrics"]["iteration"]
    assert it["applies_saved_per_iteration"] == pytest.approx(1.0)
