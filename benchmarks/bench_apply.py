"""Fast apply path: KSOperator.apply across scatter engine x workspace x B_f.

Sweeps the matrix-free Hamiltonian application over wavefunction block
sizes with the precomputed-ScatterMap fast path and the ``np.add.at``
reference (the applies run inside ``with reference_scatter():``, the
degradation ladder's rung, which tier-1 pins bit for bit to the
``tests/reference`` oracle), each with the buffer-pool workspace on and
off.  The headline metric — the speedup of (fast scatter + workspace) over
(slow scatter, no workspace), i.e. over the seed implementation — lands in
``results/BENCH_apply.json`` via the harness.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_apply.py

or through pytest-benchmark for the reference configuration only.
"""

import os
from contextlib import nullcontext

import numpy as np
import pytest

from repro.fem.assembly import KSOperator
from repro.fem.mesh import uniform_mesh
from repro.fem.scatter import reference_scatter
from repro.fem.workspace import Workspace
from repro.obs import Stopwatch

from _harness import write_result

#: reference configuration the >=2x acceptance criterion is measured at
REF = {"degree": 3, "cells": 6, "nrhs": 64}
BLOCK_SIZES = (8, 16, 32, 64)
VARIANTS = (
    ("fast", True),
    ("fast", False),
    ("slow", True),
    ("slow", False),
)


def _build(degree: int, cells: int, workspace_on: bool):
    mesh = uniform_mesh(
        (10.0,) * 3, (cells,) * 3, degree, pbc=(True, True, True)
    )
    op = KSOperator(mesh, workspace=Workspace(enabled=workspace_on))
    op.set_potential(
        np.random.default_rng(0).standard_normal(mesh.nnodes)
    )
    return mesh, op


def _time_apply(op, X, repeats: int = 5) -> float:
    """Best-of-``repeats`` seconds for one ``op.apply`` on block ``X``."""
    op.apply(X)  # warm the workspace pool / scatter map
    best = np.inf
    for _ in range(repeats):
        watch = Stopwatch()
        op.apply(X)
        best = min(best, watch.elapsed())
    return best


def run_sweep(degree: int, cells: int, nrhs: int, repeats: int = 5):
    """Time every (scatter, workspace, B_f) combination on one mesh."""
    rng = np.random.default_rng(1)
    rows = []
    for scatter, ws_on in VARIANTS:
        mesh, op = _build(degree, cells, ws_on)
        Xfull = rng.standard_normal((op.n, nrhs))
        for bf in BLOCK_SIZES:
            if bf > nrhs:
                continue
            with reference_scatter() if scatter == "slow" else nullcontext():
                seconds = _time_apply(op, Xfull[:, :bf], repeats)
            rows.append(
                {
                    "scatter": scatter,
                    "workspace": ws_on,
                    "block_size": bf,
                    "seconds": seconds,
                    "applies_per_s": 1.0 / seconds,
                }
            )
    return rows


#: commit whose ``assembly.py`` predates the fast apply path (the growth
#: seed); the A/B below times it against the current operator in-process
SEED_SHA = "7fd4818"


def _seed_apply_seconds(degree: int, cells: int, nrhs: int, repeats: int = 5):
    """Best-of apply seconds for the pre-fast-path operator, via git.

    The in-repo "slow" variant still benefits from the cached gathers and
    in-place arithmetic of the new code, so the honest seed baseline is the
    historical module itself.  Returns None when git or the blob is
    unavailable (e.g. a source tarball).
    """
    import importlib.util
    import subprocess
    import sys
    import tempfile

    try:
        src = subprocess.run(
            ["git", "show", f"{SEED_SHA}:src/repro/fem/assembly.py"],
            capture_output=True, text=True, timeout=30,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if src.returncode != 0:
            return None
        with tempfile.NamedTemporaryFile(
            "w", suffix=".py", delete=False
        ) as f:
            f.write(src.stdout)
            path = f.name
        import repro.fem  # noqa: F401  (package context for relative imports)

        spec = importlib.util.spec_from_file_location(
            "repro.fem._assembly_seed", path
        )
        mod = importlib.util.module_from_spec(spec)
        sys.modules["repro.fem._assembly_seed"] = mod
        spec.loader.exec_module(mod)
    except (OSError, subprocess.SubprocessError, ImportError):
        return None
    mesh = uniform_mesh(
        (10.0,) * 3, (cells,) * 3, degree, pbc=(True, True, True)
    )
    op = mod.KSOperator(mesh)
    op.set_potential(np.random.default_rng(0).standard_normal(mesh.nnodes))
    X = np.random.default_rng(1).standard_normal((op.n, nrhs))
    return _time_apply(op, X, repeats)


def _speedup(rows, bf: int) -> float:
    """(fast + workspace) over (slow scatter, no workspace) at ``bf``."""

    def sec(scatter, ws):
        return next(
            r["seconds"]
            for r in rows
            if r["scatter"] == scatter
            and r["workspace"] is ws
            and r["block_size"] == bf
        )

    return sec("slow", False) / sec("fast", True)


def main() -> None:
    watch = Stopwatch()
    rows = run_sweep(**REF)
    speedup = _speedup(rows, REF["nrhs"])
    fast_s = next(
        r["seconds"]
        for r in rows
        if r["scatter"] == "fast"
        and r["workspace"] is True
        and r["block_size"] == REF["nrhs"]
    )
    seed_s = _seed_apply_seconds(**REF)
    write_result(
        "apply",
        params=REF,
        wall_seconds=watch.elapsed(),
        metrics={
            "sweep": rows,
            "speedup_fast_ws_vs_slow_nows": speedup,
            "seed_apply_seconds": seed_s,
            "speedup_fast_ws_vs_seed": (
                None if seed_s is None else seed_s / fast_s
            ),
            "reference_block_size": REF["nrhs"],
        },
    )
    print(f"{'scatter':<8} {'ws':<6} {'B_f':>4} {'ms/apply':>10}")
    for r in rows:
        print(
            f"{r['scatter']:<8} {str(r['workspace']):<6} "
            f"{r['block_size']:>4} {1e3 * r['seconds']:>10.2f}"
        )
    print(
        f"speedup (fast+ws vs slow+no-ws) @ B_f={REF['nrhs']}: {speedup:.2f}x"
    )
    if seed_s is not None:
        print(
            f"speedup (fast+ws vs seed {SEED_SHA}) @ B_f={REF['nrhs']}: "
            f"{seed_s / fast_s:.2f}x"
        )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (reference configuration only)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def apply_setup():
    mesh, op = _build(REF["degree"], REF["cells"], workspace_on=True)
    X = np.random.default_rng(1).standard_normal((op.n, REF["nrhs"]))
    return op, X


def test_apply_fast_reference(benchmark, apply_setup):
    op, X = apply_setup
    out = benchmark(op.apply, X)
    assert out.shape == X.shape
    benchmark.extra_info.update(REF, scatter="fast", workspace=True)


def test_apply_speedup_vs_seed():
    """The fast path beats the seed (slow scatter, no workspace) at B_f=64."""
    rows = run_sweep(**REF, repeats=3)
    assert _speedup(rows, REF["nrhs"]) > 1.5


if __name__ == "__main__":
    main()
