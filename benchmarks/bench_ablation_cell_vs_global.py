"""Ablation (Sec 5.4.1): global sparse matvec vs cell-level batched GEMM vs
the axis-factorised kernel.

The paper's central kernel choice: recast ``H X`` as batched dense
cell-level products (``Assembly_FE {H_c X_c}``) instead of a global sparse
matrix apply, trading FLOPs for the arithmetic intensity a GPU needs (on one
CPU core the sparse product can still come out ahead; the benchmark prints
what this host does).  That flow is measured here on the cell engine
(``_cell_engine``: gather -> batched cell GEMM -> CSR scatter, what the rank
backends run per rank).  The third row is what ``KSOperator.apply`` runs in
one process: on a tensor-product mesh the kinetic operator is a Kronecker sum
of three 1-D matrices, which needs no gather or scatter at all — an option
the paper's unstructured adaptive meshes do not have.  All three are
benchmarked on identical operators.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.assembly import KSOperator
from repro.fem.mesh import uniform_mesh

from _cell_engine import cell_operator


@pytest.fixture(scope="module")
def operators():
    mesh = uniform_mesh((8.0,) * 3, (4, 4, 4), degree=4)
    axis, cell = KSOperator(mesh), cell_operator(mesh)
    rng = np.random.default_rng(0)
    v = rng.normal(size=mesh.nnodes) * 0.1
    axis.set_potential(v)
    cell.set_potential(v)
    H = sp.csr_matrix(cell.matrix())
    X = rng.standard_normal((axis.n, 64))
    return axis, cell, H, X


def test_global_sparse_apply(benchmark, operators):
    axis, cell, H, X = operators
    Y = benchmark(lambda: H @ X)
    assert Y.shape == X.shape


def test_cell_level_batched_apply(benchmark, operators):
    axis, cell, H, X = operators
    Y = benchmark(cell.apply, X)
    assert Y.shape == X.shape


def test_axis_factorised_apply(benchmark, operators):
    axis, cell, H, X = operators
    Y = benchmark(axis.apply, X)
    assert Y.shape == X.shape


def test_all_paths_agree(operators, benchmark):
    axis, cell, H, X = operators
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    want = H @ X
    assert np.allclose(cell.apply(X), want, atol=1e-9)
    assert np.allclose(axis.apply(X), want, atol=1e-9)


def test_sparse_matrix_density(operators, benchmark):
    """Context: the FE sparse operator is ~0.1-1% dense; cell matrices are
    small and dense — exactly the regime where batched GEMMs pay off."""
    axis, cell, H, X = operators
    density = benchmark(lambda: H.nnz / (H.shape[0] * H.shape[1]))
    print(f"\n--- global sparse density {density:.2%}, "
          f"cell matrix {axis.mesh.nodes_per_cell}^2 dense, "
          f"axis matrices {axis.kinetic.shape}")
    assert density < 0.05
