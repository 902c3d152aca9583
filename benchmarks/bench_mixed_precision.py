"""Sec 5.4.2 ablation: mixed-precision strategies — measured.

* FP32 halo exchange halves the boundary-communication volume at ~1e-7
  relative error (virtual cluster, real execution);
* FP32 off-diagonal blocks speed up the blocked Gram/rotation kernels on
  this host while keeping FP64-level accuracy in the final energies
  (verified in tests/test_scf.py::test_mixed_precision_scf_matches_fp64).
"""

import numpy as np
import pytest

from repro.core.subspace import batched_gram, batched_rotate
from repro.fem.assembly import CellStiffness
from repro.fem.mesh import uniform_mesh
from repro.hpc.cluster import VirtualCluster

from _harness import bench_seconds, write_result


@pytest.fixture(scope="module")
def gram_input(rng):
    return np.asfortranarray(rng.standard_normal((20000, 96)))


@pytest.mark.parametrize("mixed", [False, True], ids=["fp64", "mixed-fp32"])
def test_blocked_gram_precision_speed(benchmark, gram_input, mixed):
    S = benchmark(batched_gram, gram_input, block_size=32, mixed_precision=mixed)
    ref = gram_input.T @ gram_input
    rel = np.abs(S - ref).max() / np.abs(ref).max()
    benchmark.extra_info["max_rel_error"] = float(rel)
    write_result(
        "mixed_precision_gram",
        params={"shape": list(gram_input.shape), "block": 32, "mixed": mixed},
        wall_seconds=bench_seconds(benchmark),
        metrics={"max_rel_error": float(rel)},
    )
    assert rel < (1e-12 if not mixed else 1e-5)


@pytest.mark.parametrize("mixed", [False, True], ids=["fp64", "mixed-fp32"])
def test_blocked_rotate_precision_speed(benchmark, gram_input, mixed):
    Q = np.linalg.qr(np.random.default_rng(1).standard_normal((96, 96)))[0]
    Y = benchmark(batched_rotate, gram_input, Q, 32, mixed)
    rel = np.abs(Y - gram_input @ Q).max() / np.abs(gram_input).max()
    assert rel < (1e-12 if not mixed else 1e-5)


def test_fp32_halo_traffic_and_accuracy(benchmark, table_printer):
    """Paper: FP32 boundary communication -> ~2x lower cost, FP64 accuracy."""
    mesh = uniform_mesh((6.0,) * 3, (4, 4, 4), degree=4)
    x = np.random.default_rng(2).normal(size=(mesh.nnodes, 16))
    ref = CellStiffness(mesh).apply_full(x)

    def run():
        out = []
        for fp32 in (False, True):
            vc = VirtualCluster(mesh, 8, fp32_halo=fp32)
            y = vc.apply_stiffness(x)
            rel = float(np.abs(y - ref).max() / np.abs(ref).max())
            out.append((fp32, vc.traffic.p2p_bytes, rel))
        return out

    rows = benchmark(run)
    table_printer(
        "Sec 5.4.2 (measured): halo precision vs traffic and error",
        ["fp32 halo", "p2p bytes", "max rel err"],
        rows,
    )
    write_result(
        "mixed_precision_halo",
        params={"nranks": 8, "nvec": 16, "degree": 4},
        wall_seconds=bench_seconds(benchmark),
        metrics={
            ("fp32" if fp32 else "fp64"): {
                "p2p_bytes": bytes_,
                "max_rel_error": rel,
            }
            for fp32, bytes_, rel in rows
        },
    )
    (f64, b64, e64), (f32, b32, e32) = rows
    assert b32 == pytest.approx(0.5 * b64)
    assert e64 < 1e-13 and e32 < 1e-6
