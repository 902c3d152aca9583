"""Fig 4: Chebyshev-filter performance vs wavefunction block size B_f.

Two parts: (i) the calibrated GPU model regenerating the paper's
Summit/Crusher/Perlmutter efficiency-vs-B_f series, and (ii) the *same
blocked kernel measured for real* on this host with pytest-benchmark —
demonstrating the arithmetic-intensity trend the paper exploits.  The
measured half runs the cell-level batched GEMM (``_cell_engine``), the
kernel the figure is about, not the axis-factorised one ``KSOperator``
applies in process.
"""

import numpy as np
import pytest

from repro.core.chebyshev import chebyshev_filter
from repro.fem.mesh import uniform_mesh
from repro.hpc.machine import CRUSHER, PERLMUTTER, SUMMIT
from repro.hpc.perfmodel import cf_block_efficiency

from _cell_engine import cell_operator


@pytest.fixture(scope="module")
def cf_setup():
    mesh = uniform_mesh((8.0,) * 3, (4, 4, 4), degree=5)
    op = cell_operator(mesh)
    op.set_potential(np.zeros(mesh.nnodes))
    b = op.spectral_upper_bound()
    X = np.random.default_rng(0).standard_normal((op.n, 64))
    return mesh, op, b, X


@pytest.mark.parametrize("block_size", [4, 16, 64])
def test_cf_measured_blocksize(benchmark, cf_setup, block_size):
    """Measured blocked CF kernel on this host (trend: larger B_f faster)."""
    mesh, op, b, X = cf_setup
    result = benchmark(
        chebyshev_filter, op, X, 8, 1.0, b, -1.0, block_size=block_size
    )
    assert result.shape == X.shape
    flops = 8 * 2 * mesh.ncells * mesh.nodes_per_cell**2 * X.shape[1]
    benchmark.extra_info["gflops"] = flops / 1e9
    benchmark.extra_info["block_size"] = block_size


def test_cf_modeled_efficiency_table(benchmark, table_printer):
    """The modeled Fig 4 series (paper @B_f=500: 56.3 / 41.1 / 85.7 %)."""

    def build():
        rows = []
        for bf in (100, 200, 300, 400, 500):
            rows.append(
                (
                    bf,
                    100 * cf_block_efficiency(SUMMIT, bf),
                    100 * cf_block_efficiency(CRUSHER, bf),
                    100 * cf_block_efficiency(PERLMUTTER, bf),
                )
            )
        return rows

    rows = benchmark(build)
    table_printer(
        "Fig 4 (model): CF % of FP64 peak vs B_f",
        ["B_f", "Summit %", "Crusher %", "Perlmutter %"],
        rows,
    )
    # monotone increase and the paper's machine ordering at B_f = 500
    eff500 = rows[-1]
    assert eff500[3] > eff500[1] > eff500[2]
    assert abs(eff500[1] - 56.3) < 6.0
    assert abs(eff500[2] - 41.1) < 6.0
    assert abs(eff500[3] - 85.7) < 9.0
