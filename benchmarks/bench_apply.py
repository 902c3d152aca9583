"""Kohn-Sham apply: the two engines, the workspace, and the seed.

``run_sweep`` times ``KSOperator.apply`` — in process the axis-factorised
kernel (three accumulating GEMMs on the free block, the potential folded into
the last; ``repro.fem.fdm.AxisKinetic``) — over
wavefunction block sizes with the buffer-pool workspace on and off, and
against the growth seed's operator (``git show``n and loaded beside the
current one).  The headline numbers land in ``results/BENCH_apply.json`` via
the harness.

``kernel_ab`` holds the kernel tables (printed, and recorded under
``kernel_ab``):

* ``engines`` — one whole apply through the cell-level flow (lift -> gather ->
  batched cell GEMM -> CSR scatter -> Löwdin scale; ``_cell_engine``) against
  the axis kernel, on the ledger's Mg32 mesh shape over degree x
  {graded, uniform} x {Gamma, Bloch} x block size;
* ``sizes`` — the same pair over mesh size: it does not cross over;
* ``cf_term`` — one term of the Chebyshev recurrence, ``alpha (H - c) Y -
  beta X_prev``: the arithmetic it was before the term became one kernel call
  (three ``np.matmul``s and two adds through a scratch block, the potential
  pass, then ``tests/reference``'s allocating passes) against the shipped
  ``op.apply(Y, out=, scale=, shift=, minus=)``, on the ledger's Mg32 block at
  Gamma and (0, 0, 1/4) and on H2O's graded 15^3 block.  The ``B = 1`` row is
  Lanczos's vector: the fused kernel must not lose there;
* ``cell_local`` — the rank engines' ``CellStiffness.apply_cells`` against
  ``tests/reference``'s three dense Kronecker GEMMs, plus ROADMAP 3(b)'s open
  row: on a *uniform* degree-4 mesh, the dense fused GEMM the kernel runs
  there against the factorised product it runs on graded meshes.

What a kernel saves end to end is the ledger's business
(``benchmarks/ledger``), not this script's.

Run standalone for the full sweep::

    PYTHONPATH=src python benchmarks/bench_apply.py

or through pytest-benchmark for the reference configuration only.
"""

import os
import pathlib
import sys

import numpy as np
import pytest

from repro.fem.assembly import CellStiffness, KSOperator
from repro.fem.mesh import Mesh3D, graded_edges, uniform_mesh
from repro.fem.workspace import Workspace
from repro.obs import Stopwatch

from _cell_engine import cell_operator
from _harness import write_result

# the oracles live with the tests; make the repo root importable when this
# file runs as a script (under pytest it already is)
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.reference import reference_apply_cells, reference_cf_term  # noqa: E402

#: reference configuration the speedup over the seed is measured at
REF = {"degree": 3, "cells": 6, "nrhs": 64}
BLOCK_SIZES = (8, 16, 32, 64)


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
    """Time every (workspace, B_f) combination on one mesh."""
    rng = np.random.default_rng(1)
    rows = []
    for ws_on in (True, False):
        mesh, op = _build(degree, cells, ws_on)
        Xfull = rng.standard_normal((op.n, nrhs))
        for bf in BLOCK_SIZES:
            if bf > nrhs:
                continue
            seconds = _time_apply(op, Xfull[:, :bf], repeats)
            rows.append(
                {
                    "workspace": ws_on,
                    "block_size": bf,
                    "seconds": seconds,
                    "applies_per_s": 1.0 / seconds,
                }
            )
    return rows


def _mesh(cells, degree: int, graded: bool, periodic: bool) -> Mesh3D:
    edges = tuple(
        graded_edges(10.0, n, center=5.0, ratio=2.5 if graded else 1.0)
        for n in cells
    )
    return Mesh3D(edges=edges, degree=degree, pbc=(periodic,) * 3)


def _engine_row(mesh, kfrac, B: int, repeats: int) -> dict:
    """One whole ``H~ X`` through each engine, best-of ms."""
    axis, cell = KSOperator(mesh, kfrac=kfrac), cell_operator(mesh, kfrac=kfrac)
    v = np.random.default_rng(0).standard_normal(mesh.nnodes)
    axis.set_potential(v)
    cell.set_potential(v)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((axis.n, B)).astype(axis.dtype)
    if kfrac is not None:
        X += 1j * rng.standard_normal(X.shape)
    out = np.empty_like(X)
    want = cell.apply(X)
    assert np.abs(axis.apply(X) - want).max() <= 1e-12 * np.abs(want).max()
    dt = axis.dtype
    return {
        "cells": list(mesh.ncells_axis),
        "degree": mesh.degree,
        "ndof": axis.n,
        "block_size": B,
        "cell_ms": 1e3 * _best_seconds(lambda: cell.apply(X, out=out), repeats),
        "axis_ms": 1e3 * _best_seconds(lambda: axis.apply(X, out=out), repeats),
        "cell_flops_per_value": cell.stiff.gemm_flops(mesh.ncells, 1, dt) / axis.n,
        "axis_flops_per_value": axis.kinetic.flops(1, dt) / axis.n,
    }


def _cell_local_rows(degrees, block_sizes, cells: int = 4):
    """Shipped ``apply_cells`` vs the dense three-GEMM oracle, best-of ms;
    on the uniform degree-4 mesh also vs the factorised product, reached by
    nudging one edge off the uniformity test (1e-9 relative)."""
    rows = []
    for graded in (True, False):
        for kfrac in (None, (0.3, 0.0, 0.25)):
            for degree in degrees:
                mesh = _mesh((cells,) * 3, degree, graded, periodic=True)
                stiff = CellStiffness(mesh, kfrac=kfrac)
                factorised = None
                if degree == 4 and not graded:
                    nudged = [e.copy() for e in mesh.edges]
                    nudged[0][1] *= 1.0 + 1e-9
                    factorised = CellStiffness(
                        Mesh3D(edges=tuple(nudged), degree=degree, pbc=mesh.pbc),
                        kfrac=kfrac,
                    )
                    assert stiff.is_uniform and not factorised.is_uniform
                ws = Workspace()
                rng = np.random.default_rng(2)
                for B in block_sizes:
                    Xc = rng.standard_normal(
                        (mesh.ncells, mesh.nodes_per_cell, B)
                    ).astype(stiff.dtype)
                    row = {
                        "mesh": "graded" if graded else "uniform",
                        "bloch": kfrac is not None,
                        "degree": degree,
                        "block_size": B,
                        "reference_ms": 1e3 * _best_seconds(
                            lambda: reference_apply_cells(stiff, Xc), 30
                        ),
                        "shipped_ms": 1e3 * _best_seconds(
                            lambda: stiff.apply_cells(Xc, workspace=ws), 30
                        ),
                        "flops_per_cell_column": stiff.gemm_flops(1, 1, stiff.dtype),
                    }
                    if factorised is not None:
                        row["factorised_ms"] = 1e3 * _best_seconds(
                            lambda: factorised.apply_cells(Xc, workspace=ws), 30
                        )
                    rows.append(row)
    return rows


def _unfused_apply(op, X, out, work):
    """``H~ X`` as it ran before the fused term: one ``np.matmul`` per axis
    (the second and third through ``work`` and an add), then the potential."""
    fx, fy, fz = op.kinetic.shape
    leads = ((fx,), (fx, fy), (fx * fy, fz))
    for A, lead, dst in zip(op.kinetic.matrices, leads, (out, work, work)):
        x, y = X.view(A.dtype), dst.view(A.dtype)
        np.matmul(A, x.reshape(*lead, -1), out=y.reshape(*lead, -1))
        if dst is work:
            out += work
    np.multiply(op.potential_free[:, None], X, out=work)
    out += work
    return out


#: (label, cells, degree, graded, periodic, kfrac, block sizes)
CF_TERM_CASES = (
    ("mg32", (3, 5, 5), 3, False, True, None, (1, 8, 37)),
    ("mg32", (3, 5, 5), 3, False, True, (0.0, 0.0, 0.25), (1, 8, 37)),
    ("h2o", (4, 4, 4), 4, True, False, None, (8,)),
)


def _cf_term_rows(repeats: int = 200):
    """One recurrence term, unfused against fused, best-of ms."""
    rows = []
    term = dict(scale=0.37, shift=11.0)
    for label, cells, degree, graded, periodic, kfrac, block_sizes in CF_TERM_CASES:
        mesh = _mesh(cells, degree, graded, periodic)
        op = KSOperator(mesh, kfrac=kfrac)
        op.set_potential(np.random.default_rng(0).standard_normal(mesh.nnodes))
        rng = np.random.default_rng(2)
        for B in block_sizes:
            Y, P = (rng.standard_normal((op.n, B)).astype(op.dtype) for _ in range(2))
            if kfrac is not None:
                Y += 1j * rng.standard_normal(Y.shape)
                P += 1j * rng.standard_normal(P.shape)
            out, hy, work = (np.empty_like(Y) for _ in range(3))
            minus = (0.61, P)

            def unfused():
                return reference_cf_term(
                    _unfused_apply(op, Y, hy, work), Y, minus=minus, **term
                )

            def fused():
                return op.apply(Y, out=out, minus=minus, **term)

            want = unfused()
            assert np.abs(fused() - want).max() <= 1e-13 * np.abs(want).max()
            rows.append({
                "block": label,
                "bloch": kfrac is not None,
                "ndof": op.n,
                "block_size": B,
                "unfused_ms": 1e3 * _best_seconds(unfused, repeats),
                "fused_ms": 1e3 * _best_seconds(fused, repeats),
                "plain_apply_ms": 1e3 * _best_seconds(
                    lambda: op.apply(Y, out=out), repeats
                ),
                "unfused_plain_apply_ms": 1e3 * _best_seconds(
                    lambda: _unfused_apply(op, Y, hy, work), repeats
                ),
            })
    return rows


#: graded degree-4 Dirichlet cubes and the periodic degree-3 Mg shapes
SIZES = (
    ((4,) * 3, 4, False), ((8,) * 3, 4, False), ((12,) * 3, 4, False),
    ((16,) * 3, 4, False), ((6, 10, 10), 3, True), ((9, 15, 15), 3, True),
)


def kernel_ab(degrees=(3, 4), block_sizes=(1, 8, 37), sizes=SIZES):
    """The four kernel tables of the module docstring."""
    engines = []
    for graded in (True, False):
        for kfrac in (None, (0.0, 0.0, 0.25)):
            for degree in degrees:
                mesh = _mesh((3, 5, 5), degree, graded, periodic=True)
                for B in block_sizes:
                    row = _engine_row(mesh, kfrac, B, repeats=50)
                    row.update(
                        mesh="graded" if graded else "uniform",
                        bloch=kfrac is not None,
                    )
                    engines.append(row)
    by_size = [
        _engine_row(_mesh(cells, degree, True, periodic), None, 16, repeats=5)
        for cells, degree, periodic in sizes
    ]
    return {
        "engines": engines,
        "sizes": by_size,
        "cf_term": _cf_term_rows(),
        "cell_local": _cell_local_rows(degrees, block_sizes),
    }


#: commit whose ``assembly.py`` predates the fast apply path (the growth
#: seed); the A/B below times it against the current operator in-process
SEED_SHA = "7fd4818"


def _seed_apply_seconds(degree: int, cells: int, nrhs: int, repeats: int = 5):
    """Best-of apply seconds for the pre-fast-path operator, via git.

    The honest seed baseline is the historical module itself.  Returns None
    when git or the blob is unavailable (e.g. a source tarball).
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


def main() -> None:
    watch = Stopwatch()
    rows = run_sweep(**REF)
    fast_s = next(
        r["seconds"]
        for r in rows
        if r["workspace"] is True and r["block_size"] == REF["nrhs"]
    )
    seed_s = _seed_apply_seconds(**REF)
    ab = kernel_ab()
    write_result(
        "apply",
        params=REF,
        wall_seconds=watch.elapsed(),
        metrics={
            "sweep": rows,
            "seed_apply_seconds": seed_s,
            "speedup_vs_seed": None if seed_s is None else seed_s / fast_s,
            "reference_block_size": REF["nrhs"],
            "kernel_ab": ab,
        },
    )
    print(f"{'mesh':<8} {'bloch':<6} {'p':>2} {'B':>3} {'cell ms':>9} {'axis ms':>9}")
    for r in ab["engines"]:
        print(
            f"{r['mesh']:<8} {str(r['bloch']):<6} {r['degree']:>2} "
            f"{r['block_size']:>3} {r['cell_ms']:>9.3f} {r['axis_ms']:>9.3f}"
        )
    print(f"{'cells':<14} {'p':>2} {'ndof':>7} {'cell ms':>9} {'axis ms':>9}  (B=16)")
    for r in ab["sizes"]:
        print(
            f"{str(tuple(r['cells'])):<14} {r['degree']:>2} {r['ndof']:>7} "
            f"{r['cell_ms']:>9.3f} {r['axis_ms']:>9.3f}"
        )
    print(
        f"{'block':<6} {'bloch':<6} {'B':>3} {'unfused':>9} {'fused':>9}  "
        f"(one CF term, ms) {'H X was':>9} {'H X':>9}"
    )
    for r in ab["cf_term"]:
        print(
            f"{r['block']:<6} {str(r['bloch']):<6} {r['block_size']:>3} "
            f"{r['unfused_ms']:>9.4f} {r['fused_ms']:>9.4f} {'':>19}"
            f"{r['unfused_plain_apply_ms']:>9.4f} {r['plain_apply_ms']:>9.4f}"
        )
    print(
        f"{'mesh':<8} {'bloch':<6} {'p':>2} {'B':>3} {'ref ms':>8} {'new ms':>8} "
        f"{'fact ms':>8}"
    )
    for r in ab["cell_local"]:
        fact = r.get("factorised_ms")
        print(
            f"{r['mesh']:<8} {str(r['bloch']):<6} {r['degree']:>2} "
            f"{r['block_size']:>3} {r['reference_ms']:>8.3f} {r['shipped_ms']:>8.3f} "
            + (f"{fact:>8.3f}" if fact is not None else f"{'-':>8}")
        )
    print(f"{'ws':<6} {'B_f':>4} {'ms/apply':>10}")
    for r in rows:
        print(
            f"{str(r['workspace']):<6} {r['block_size']:>4} "
            f"{1e3 * r['seconds']:>10.2f}"
        )
    if seed_s is not None:
        print(
            f"speedup (workspace on vs seed {SEED_SHA}) @ B_f={REF['nrhs']}: "
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
    benchmark.extra_info.update(REF, workspace=True)


def test_apply_speedup_vs_seed(apply_setup):
    """The shipped apply beats the growth seed's operator at B_f=64."""
    seed_s = _seed_apply_seconds(**REF, repeats=3)
    if seed_s is None:
        pytest.skip("seed commit not reachable (no git history)")
    op, X = apply_setup
    assert seed_s / _time_apply(op, X, repeats=3) > 1.5


if __name__ == "__main__":
    main()
