"""Batched subspace engine: fused CholGS→RR vs the reference block loops.

Times the combined CholGS+RR stage of one ChFES iteration — everything
between the Chebyshev filter returning a block ``W`` and the rotated
``(evals, X)`` leaving the subspace step — on the reference path (the
``tests/reference`` oracles: per-(i,j) block loops, per-block FP32 casts,
and the ``op.apply`` a standalone Rayleigh-Ritz issues) against the batched
engine (:func:`repro.core.subspace.fused_cholgs_rr` consuming a
precomputed ``HW``).

Apply accounting: the engine's ``HW = op.apply(W)`` replaces the filter
apply elided by the HX carry (the next filter's first term is the rotated
``HX`` handed out of the fused stage), so both paths spend exactly ``m``
operator applications outside the stage and the stage comparison is
apply-budget-neutral — the engine iteration still ends one full-subspace
apply cheaper, which the ``applies_per_iteration`` metric (and the
FlopLedger in real runs) shows directly.

Results land in ``results/BENCH_subspace.json`` via the PR 2 harness::

    PYTHONPATH=src python benchmarks/bench_subspace.py
"""

import pathlib
import sys

import numpy as np

from repro.core.chebyshev import chebyshev_filter
from repro.core.subspace import cholesky_orthonormalize, fused_cholgs_rr
from repro.fem.assembly import KSOperator
from repro.fem.mesh import uniform_mesh
from repro.obs import Stopwatch

from _harness import write_result

# the oracles live with the tests; make the repo root importable when this
# file runs as a script (under pytest it already is)
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.reference import reference_cholgs, reference_rayleigh_ritz  # noqa: E402

#: reference configuration the >=2x acceptance criterion is measured at
#: (the bench_apply mesh: degree 3, 6^3 cells, with the paper-scale block)
REF = {"degree": 3, "cells": 6, "nvec": 128, "block_size": 64, "cheb_degree": 15}


class _CountingOp:
    """Transparent proxy counting full-subspace-equivalent applications."""

    def __init__(self, op, nvec: int):
        self._op = op
        self._nvec = nvec
        self.columns = 0

    def apply(self, X, out=None, **term):
        self.columns += X.shape[1] if X.ndim == 2 else 0
        return self._op.apply(X, out=out, **term)

    @property
    def subspace_applies(self) -> float:
        """Applications of the whole ``nvec``-column subspace."""
        return self.columns / self._nvec

    def __getattr__(self, name):
        return getattr(self._op, name)


def _build(degree: int, cells: int, nvec: int):
    mesh = uniform_mesh((10.0,) * 3, (cells,) * 3, degree, pbc=(True, True, True))
    op = KSOperator(mesh)
    op.set_potential(np.random.default_rng(0).standard_normal(mesh.nnodes))
    rng = np.random.default_rng(1)
    X = rng.standard_normal((op.n, nvec))
    return op, cholesky_orthonormalize(X, block_size=nvec)


def _reference_stage(op, W, block_size: int, mixed_precision: bool = False):
    """Unfused CholGS then Rayleigh-Ritz on the oracle loops."""
    kw = dict(block_size=block_size, mixed_precision=mixed_precision)
    return reference_rayleigh_ritz(op, reference_cholgs(W, **kw), **kw)


def _filter_window(op, X):
    """Plausible steady-state filter window from the operator's spectrum."""
    d = np.real(op.diagonal())
    a0 = float(np.min(d)) - 1.0
    b = float(np.max(d)) + 10.0
    a = a0 + 0.35 * (b - a0)
    return a, b, a0


def _best(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        watch = Stopwatch()
        fn()
        best = min(best, watch.elapsed())
    return best


def run_stage_bench(
    degree: int,
    cells: int,
    nvec: int,
    block_size: int,
    cheb_degree: int,
    repeats: int = 5,
):
    """Time the CholGS+RR stage on both paths, both precisions.

    ``W`` is a genuinely filtered block (one Chebyshev pass on an
    orthonormal random block), so the overlap/projection matrices carry the
    structure the mixed-precision layout assumes.
    """
    op, X = _build(degree, cells, nvec)
    a, b, a0 = _filter_window(op, X)
    rows = []
    W = chebyshev_filter(op, X, cheb_degree, a, b, a0, block_size=block_size)
    W = np.ascontiguousarray(W)
    HW = op.apply(W)
    for mp in (False, True):
        ref_s = _best(lambda: _reference_stage(op, W, block_size, mp), repeats)
        eng_s = _best(
            lambda: fused_cholgs_rr(
                W, HW, op=op, block_size=block_size, mixed_precision=mp
            ),
            repeats,
        )
        rows.append(
            {
                "mixed_precision": mp,
                "reference_stage_seconds": ref_s,
                "engine_stage_seconds": eng_s,
                "stage_speedup": ref_s / eng_s,
            }
        )
    return rows


def run_iteration_bench(
    degree: int,
    cells: int,
    nvec: int,
    block_size: int,
    cheb_degree: int,
    repeats: int = 3,
):
    """Time a full steady-state ChFES iteration and count its applies.

    The engine iteration starts from a carried ``HX`` (filter first term
    free) and ends by producing the next carry; the reference iteration is
    filter + CholGS + RR with the extra apply inside RR.
    """
    op, X = _build(degree, cells, nvec)
    a, b, a0 = _filter_window(op, X)
    out = {}
    cop = _CountingOp(op, nvec)

    def ref_iteration():
        W = chebyshev_filter(
            cop, X, cheb_degree, a, b, a0, block_size=block_size
        )
        _reference_stage(cop, W, block_size)

    ref_s = _best(ref_iteration, repeats)
    cop.columns = 0
    ref_iteration()
    out["reference"] = {
        "iteration_seconds": ref_s,
        "applies_per_iteration": cop.subspace_applies,
    }
    cop = _CountingOp(op, nvec)
    # warm-up iteration to establish the carry
    W = chebyshev_filter(cop, X, cheb_degree, a, b, a0, block_size=block_size)
    HW = cop.apply(np.ascontiguousarray(W))
    _, Xc, hx0 = fused_cholgs_rr(W, HW, op=cop, block_size=block_size)
    state = {"X": Xc, "hx0": hx0}

    def engine_iteration():
        W = chebyshev_filter(
            cop, state["X"], cheb_degree, a, b, a0,
            block_size=block_size, hx0=state["hx0"],
        )
        HW = cop.apply(np.ascontiguousarray(W))
        _, Xn, hxn = fused_cholgs_rr(W, HW, op=cop, block_size=block_size)
        state["X"], state["hx0"] = Xn, hxn

    eng_s = _best(engine_iteration, repeats)
    cop.columns = 0
    engine_iteration()
    out["engine"] = {
        "iteration_seconds": eng_s,
        "applies_per_iteration": cop.subspace_applies,
    }
    out["iteration_speedup"] = ref_s / eng_s
    out["applies_saved_per_iteration"] = (
        out["reference"]["applies_per_iteration"]
        - out["engine"]["applies_per_iteration"]
    )
    return out


def main(params: dict | None = None, repeats: int = 5) -> dict:
    cfg = dict(REF if params is None else params)
    watch = Stopwatch()
    stage_rows = run_stage_bench(**cfg, repeats=repeats)
    iteration = run_iteration_bench(**cfg, repeats=max(2, repeats - 2))
    fp64 = next(r for r in stage_rows if not r["mixed_precision"])
    record = write_result(
        "subspace",
        params=cfg,
        wall_seconds=watch.elapsed(),
        metrics={
            "stage": stage_rows,
            "iteration": iteration,
            "stage_speedup_fp64": fp64["stage_speedup"],
        },
    )
    print(f"{'mixed':<6} {'ref ms':>9} {'engine ms':>10} {'speedup':>8}")
    for r in stage_rows:
        print(
            f"{str(r['mixed_precision']):<6} "
            f"{1e3 * r['reference_stage_seconds']:>9.2f} "
            f"{1e3 * r['engine_stage_seconds']:>10.2f} "
            f"{r['stage_speedup']:>7.2f}x"
        )
    print(
        "applies/iteration: reference "
        f"{iteration['reference']['applies_per_iteration']:.2f} -> engine "
        f"{iteration['engine']['applies_per_iteration']:.2f} "
        f"(iteration speedup {iteration['iteration_speedup']:.2f}x)"
    )
    return record


if __name__ == "__main__":
    main()
