"""Fast apply path: KSOperator.apply across scatter engine x workspace x B_f.

Sweeps the matrix-free Hamiltonian application over wavefunction block
sizes with the precomputed-ScatterMap fast path and the ``np.add.at``
reference (the applies run inside ``with reference_scatter():``, the
degradation ladder's rung, which tier-1 pins bit for bit to the
``tests/reference`` oracle), each with the buffer-pool workspace on and
off.  The headline metric — the speedup of (fast scatter + workspace) over
(slow scatter, no workspace), i.e. over the seed implementation — lands in
``results/BENCH_apply.json`` via the harness.

A second table A/Bs the cell-local product itself: the shipped
``CellStiffness.apply_cells`` (one fused dense GEMM on uniform meshes, the
sum-factorised product on graded ones, complex blocks through their real
view) against ``tests/reference``'s three dense Kronecker GEMMs, over degree
x block size on a graded and a uniform mesh, at Gamma and at a Bloch point.
It is printed and recorded under ``kernel_ab``; what a kernel saves end to
end is the ledger's business (``benchmarks/ledger``), not this script's.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_apply.py

or through pytest-benchmark for the reference configuration only.
"""

import os
import pathlib
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro.fem.assembly import CellStiffness, KSOperator
from repro.fem.mesh import Mesh3D, graded_edges, uniform_mesh
from repro.fem.scatter import reference_scatter
from repro.fem.workspace import Workspace
from repro.obs import Stopwatch

from _harness import write_result

# the oracles live with the tests; make the repo root importable when this
# file runs as a script (under pytest it already is)
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.reference import reference_apply_cells  # noqa: E402

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


def _best_seconds(fn, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one ``fn()`` after a warm-up call."""
    fn()  # warm the workspace pool / scatter map
    best = np.inf
    for _ in range(repeats):
        watch = Stopwatch()
        fn()
        best = min(best, watch.elapsed())
    return best


def _time_apply(op, X, repeats: int = 5) -> float:
    """Best-of-``repeats`` seconds for one ``op.apply`` on block ``X``."""
    return _best_seconds(lambda: op.apply(X), repeats)


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


def kernel_ab(degrees=(3, 4), block_sizes=(1, 8, 37), cells: int = 4):
    """Shipped ``apply_cells`` vs the dense three-GEMM oracle, best-of ms."""
    rows = []
    for graded in (True, False):
        for kfrac in (None, (0.3, 0.0, 0.25)):
            for degree in degrees:
                edges = graded_edges(
                    10.0, cells, center=5.0, ratio=2.5 if graded else 1.0
                )
                mesh = Mesh3D(edges=(edges,) * 3, degree=degree, pbc=(True,) * 3)
                stiff = CellStiffness(mesh, kfrac=kfrac)
                ws = Workspace()
                rng = np.random.default_rng(2)
                for B in block_sizes:
                    Xc = rng.standard_normal(
                        (mesh.ncells, mesh.nodes_per_cell, B)
                    ).astype(stiff.dtype)
                    ref_s = _best_seconds(lambda: reference_apply_cells(stiff, Xc), 30)
                    new_s = _best_seconds(
                        lambda: stiff.apply_cells(Xc, workspace=ws), 30
                    )
                    rows.append(
                        {
                            "mesh": "graded" if graded else "uniform",
                            "bloch": kfrac is not None,
                            "degree": degree,
                            "block_size": B,
                            "reference_ms": 1e3 * ref_s,
                            "shipped_ms": 1e3 * new_s,
                            "flops_per_cell_column": stiff.gemm_flops(
                                1, 1, stiff.dtype
                            ),
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
    ab = kernel_ab()
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
            "kernel_ab": ab,
        },
    )
    print(f"{'mesh':<8} {'bloch':<6} {'p':>2} {'B':>3} {'ref ms':>8} {'new ms':>8}")
    for r in ab:
        print(
            f"{r['mesh']:<8} {str(r['bloch']):<6} {r['degree']:>2} "
            f"{r['block_size']:>3} {r['reference_ms']:>8.3f} {r['shipped_ms']:>8.3f}"
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
