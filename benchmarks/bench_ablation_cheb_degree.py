"""Ablation: Chebyshev filter degree m vs subspace quality (Sec 5.3.2).

Two claims measured on a real Kohn-Sham operator:

1. "the approximation error decreases systematically with m" — the distance
   between the filtered subspace and the exact occupied eigenspace falls by
   orders of magnitude as the filter degree grows;
2. *why Algorithm 1 interleaves CholGS with filtering*: a single very-high-
   degree filter collapses the block onto the dominant eigenvector
   (overlap-matrix condition number blows past 1e16), while the same total
   polynomial degree split into moderate passes with re-orthonormalization
   converges cleanly.
"""

import numpy as np
import pytest

from repro.core.chebyshev import chebyshev_filter
from repro.core.subspace import batched_gram, cholesky_orthonormalize
from repro.fem.assembly import KSOperator
from repro.fem.mesh import uniform_mesh


@pytest.fixture(scope="module")
def ks_problem():
    mesh = uniform_mesh((10.0,) * 3, (3, 3, 3), degree=4)
    op = KSOperator(mesh)
    r = mesh.node_coords - 5.0
    v = -2.0 / np.sqrt(np.einsum("ij,ij->i", r, r) + 0.5)
    op.set_potential(v)
    H = op.matrix()
    evals, evecs = np.linalg.eigh(H)
    # 5 wanted states end at a spectral gap (s, 3x p, s | gap); a degenerate
    # boundary would make the target subspace ill-defined
    nwant = 5
    rng = np.random.default_rng(3)
    X0 = np.linalg.qr(rng.standard_normal((op.n, nwant)))[0]
    b = op.spectral_upper_bound()
    a = 0.5 * (evals[nwant - 1] + evals[nwant])  # filter cut inside the gap
    return op, evals, evecs[:, :nwant], X0, a, b


def _subspace_error(X, exact):
    Q = np.linalg.qr(X)[0]
    return float(np.linalg.norm(exact - Q @ (Q.T @ exact)))


@pytest.mark.parametrize("m", [10, 25, 50, 100])
def test_cheb_degree_filter(benchmark, ks_problem, m):
    op, evals, exact, X0, a, b = ks_problem
    Y = benchmark(chebyshev_filter, op, X0, m, a, b, float(evals[0]),
                  block_size=3)
    benchmark.extra_info["subspace_error"] = _subspace_error(Y, exact)


def test_cheb_degree_error_decreases(ks_problem, benchmark, table_printer):
    op, evals, exact, X0, a, b = ks_problem

    def build():
        rows = []
        for m in (10, 25, 50, 100):
            Y = chebyshev_filter(op, X0, m, a, b, float(evals[0]), block_size=3)
            Y = cholesky_orthonormalize(Y)
            rows.append((m, _subspace_error(Y, exact)))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table_printer(
        "Chebyshev degree ablation: subspace error vs m",
        ["degree m", "subspace error"],
        rows,
    )
    errs = [e for _, e in rows]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2  # m=100 reaches the occupied space


def test_interleaved_cholgs_beats_single_filter(ks_problem, benchmark):
    """Same total degree (200): 4 x (filter 50 + CholGS) converges; one
    monolithic degree-200 filter collapses the block (Algorithm 1's point).
    """
    op, evals, exact, X0, a, b = ks_problem

    def compare():
        single = chebyshev_filter(op, X0, 200, a, b, float(evals[0]))
        cond_single = float(np.linalg.cond(batched_gram(single)))
        X = X0.copy()
        for _ in range(4):
            X = chebyshev_filter(op, X, 50, a, b, float(evals[0]))
            X = cholesky_orthonormalize(X)
        return (
            _subspace_error(single, exact),
            cond_single,
            _subspace_error(X, exact),
        )

    err_single, cond_single, err_multi = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    print(
        f"\n--- single m=200: error {err_single:.2e} (cond(S) {cond_single:.1e}) "
        f"vs 4 x (m=50 + CholGS): error {err_multi:.2e}"
    )
    assert cond_single > 1e12  # block collapse without re-orthonormalization
    assert err_multi < 1e-6
    assert err_multi < 1e-3 * max(err_single, 1e-10)
