"""invDFT: block MINRES, adjoint machinery, planted-potential recovery."""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, minres

from repro.invdft.adjoint import adjoint_rhs, potential_gradient, solve_adjoint
from repro.invdft.minres import block_minres


def _spd_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T / n + np.diag(np.linspace(1, 5, n))


def test_block_minres_matches_scipy_per_column():
    n = 60
    H = _spd_matrix(n, 1)
    rng = np.random.default_rng(2)
    B = rng.normal(size=(n, 3))
    shifts = np.array([0.1, 0.5, 0.9])
    res = block_minres(lambda X: H @ X, B, shifts, tol=1e-12, maxiter=500)
    assert res.converged
    for j in range(3):
        x_ref, info = minres(
            LinearOperator((n, n), matvec=lambda v: H @ v),
            B[:, j], shift=shifts[j], rtol=1e-12,
        )
        assert info == 0
        assert np.allclose(res.x[:, j], x_ref, atol=1e-7)


def test_block_minres_preconditioner_reduces_iterations():
    """Paper Sec 5.3.1: an SPD preconditioner (here the inverse diagonal,
    as a callable on the live block) cuts iterations."""
    n = 200
    H = np.diag(np.geomspace(1.0, 500.0, n))  # Laplacian-like spectrum
    H += 0.05 * _spd_matrix(n, 3)
    rng = np.random.default_rng(4)
    B = rng.normal(size=(n, 2))
    shifts = np.zeros(2)
    inv_diag = 1.0 / np.diag(H)[:, None]
    plain = block_minres(lambda X: H @ X, B, shifts, tol=1e-9, maxiter=4000)
    pre = block_minres(
        lambda X: H @ X, B, shifts, precondition=lambda R, cols: inv_diag * R,
        tol=1e-9, maxiter=4000,
    )
    assert pre.converged
    assert pre.iterations < plain.iterations / 3  # paper reports ~5x


def test_block_minres_singular_shifted_system_with_projection():
    """(H - eps_i) is singular; projection solves in the complement."""
    n = 40
    H = _spd_matrix(n, 5)
    evals, evecs = np.linalg.eigh(H)
    i = 3
    psi = evecs[:, [i, i + 1]]
    shifts = evals[[i, i + 1]]
    rng = np.random.default_rng(6)
    G = rng.normal(size=(n, 2))
    G -= psi * np.einsum("ij,ij->j", psi, G)  # consistent RHS

    def project(Y, cols):  # the live columns only: a finished one has left
        p = psi[:, cols]
        return Y - p * np.einsum("ij,ij->j", p, Y)

    res = block_minres(
        lambda X: H @ X, G, shifts, project=project, tol=1e-10, maxiter=2000
    )
    assert res.converged
    # verify (H - eps) x = g in the complement and orthogonality
    for j in range(2):
        r = H @ res.x[:, j] - shifts[j] * res.x[:, j] - G[:, j]
        r -= psi[:, j] * np.dot(psi[:, j], r)
        assert np.linalg.norm(r) < 1e-7
        assert abs(np.dot(psi[:, j], res.x[:, j])) < 1e-9


def test_block_minres_rejects_bad_preconditioner():
    with pytest.raises(ValueError):
        block_minres(
            lambda X: X, np.ones((4, 1)), np.zeros(1),
            precondition=lambda R, cols: -R,
        )


def test_adjoint_rhs_orthogonality():
    from repro.fem.mesh import uniform_mesh

    mesh = uniform_mesh((4.0,) * 3, (2, 2, 2), degree=3)
    rng = np.random.default_rng(0)
    psi = np.linalg.qr(rng.normal(size=(mesh.ndof, 3)))[0]
    drho = rng.normal(size=mesh.nnodes)
    G = adjoint_rhs(mesh, psi, np.array([2.0, 2.0, 1.0]), drho)
    for j in range(3):
        assert abs(np.dot(psi[:, j], G[:, j])) < 1e-10


def test_potential_gradient_zero_for_zero_adjoint():
    from repro.fem.mesh import uniform_mesh

    mesh = uniform_mesh((4.0,) * 3, (2, 2, 2), degree=2)
    psi = np.ones((mesh.ndof, 2))
    u = potential_gradient(mesh, psi, np.zeros_like(psi))
    assert np.allclose(u, 0.0)


@pytest.mark.slow
def test_invdft_recovers_planted_lda_potential():
    """End-to-end: plant an LDA v_xc, recover it from the density alone."""
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation
    from repro.invdft import InverseDFT
    from repro.xc.lda import LDA

    config = AtomicConfiguration(["He"], [[0, 0, 0]])
    calc = DFTCalculation(
        config, xc=LDA(), padding=8.0, cells_per_axis=4, degree=3, nstates=3
    )
    res = calc.run()
    mesh = calc.mesh
    inv = InverseDFT(
        mesh, calc.config, res.rho_spin, nstates=3, minres_tol=1e-6,
        minres_maxiter=120,
    )
    out = inv.run(
        np.zeros_like(res.v_xc_spin), eta=2.0, max_iterations=80, tol=1e-12
    )
    # density mismatch decreased by orders of magnitude from the v_xc=0 start
    assert out.history[-1]["density_error"] < 0.02 * out.history[0]["density_error"]
    # recovered potential close to the planted one where the density lives
    rho = res.rho
    mask = rho > 1e-2
    dv = out.v_xc[mask, 0] - res.v_xc_spin[mask, 0]
    dv -= np.average(dv, weights=rho[mask])
    scale = np.abs(res.v_xc_spin[mask, 0]).max()
    assert np.sqrt(np.average(dv**2, weights=rho[mask])) < 0.1 * scale


def test_block_minres_no_column_is_iterated_past_its_convergence():
    """Regression: a finished column used to stay in the recurrence behind
    1e-300 guards until the slowest one was done, and overflowed under a
    good preconditioner.  Each column now leaves when it is done (tier 1
    turns any RuntimeWarning here into an error)."""
    n = 300
    d = np.geomspace(1.0, 60.0, n)
    rng = np.random.default_rng(8)
    B = np.zeros((n, 4))
    B[[5, 250], 0] = [1.0, -2.0]  # two eigencomponents: done in <= 3 steps
    B[:, 1] = rng.normal(size=n)  # needs ~100
    B[:, :2] /= np.linalg.norm(B[:, :2], axis=0)
    B[:, 2] = 1e-110 * rng.normal(size=n)  # below the block's stopping line
    # column 3 is exactly zero

    def solve(rhs, **kw):
        return block_minres(
            lambda X: d[:, None] * X, rhs, np.zeros(rhs.shape[1]), tol=1e-12,
            maxiter=2000, **kw,
        )

    res = solve(B)
    assert res.converged and np.all(np.isfinite(res.x))
    its = res.column_iterations
    assert 1 <= its[0] <= 3 and 80 <= its[1] <= 130 and its[2] == its[3] == 0
    assert res.iterations == its[1]
    assert not res.x[:, 2:].any()
    for j in range(4):
        assert np.abs(solve(B[:, [j]]).x[:, 0] - res.x[:, j]).max() <= 1e-12
    # the exact inverse as preconditioner: one step, and nothing overflows
    pre = solve(B, precondition=lambda R, cols: R / d[:, None])
    assert list(pre.column_iterations) == [1, 1, 0, 0]
    assert np.abs(pre.x[:, :2] - B[:, :2] / d[:, None]).max() <= 1e-14


def test_block_minres_zero_block_returns_zeros_without_iterating():
    calls = []
    res = block_minres(
        lambda X: calls.append(X.shape) or X, np.zeros((7, 3)), np.zeros(3)
    )
    assert res.converged and res.iterations == 0 and not calls
    assert not res.x.any() and not res.residuals.any()


# ---------------------------------------------------------------------------
# the adjoint solver's contract, against the fixed-block unpreconditioned
# oracle (tests/reference/minres.py)


def _adjoint_problem(name, cells, degree=3):
    """The spin-up adjoint block two invDFT iterations into the inversion of
    a library molecule's FCI density: ``(mesh, op, psi, evals, G, w drho)``."""
    from repro.invdft import InverseDFT
    from repro.pipeline import qmb_reference
    from repro.xc.lda import LDA

    ref = qmb_reference(name, cells_per_axis=cells, degree=degree)
    mesh = ref.calc.mesh
    inv = InverseDFT(
        mesh, ref.calc.config, ref.rho_qmb_spin,
        nstates=max(ref.n_alpha, ref.n_beta) + 3,
        minres_tol=1e-6, minres_maxiter=150,
    )
    v0, _ = LDA().potential_and_energy(mesh, ref.rho_qmb_spin)
    out = inv.run(v0, eta=2.0, max_iterations=2, tol=0.0)
    ref.calc.close()
    dr = out.rho_ks[:, 0] - inv.rho_t[:, 0]
    psi, evals = inv._psi[0], inv._evals[0]
    G = adjoint_rhs(mesh, psi, out.occupations[0], dr)
    return mesh, inv.ops[0], psi, evals, G, dr


@pytest.fixture(scope="module")
def adjoint_problems():
    built = {}

    def get(name, cells):
        if (name, cells) not in built:
            built[name, cells] = _adjoint_problem(name, cells)
        return built[name, cells]

    return get


def _true_residual(op, psi, evals, G, x):
    """``||Q((H - eps) x - g)||`` per column over the largest ``||g_k||``."""
    r = op.apply(x) - evals[None, :] * x - G
    r -= psi * np.einsum("ij,ij->j", psi, r)
    return np.linalg.norm(r, axis=0) / np.linalg.norm(G, axis=0).max()


@pytest.mark.parametrize("name", ["H2", "LiH"])
def test_solve_adjoint_matches_unpreconditioned_oracle(adjoint_problems, name):
    from tests.reference.minres import reference_solve_adjoint

    mesh, op, psi, evals, G, _ = adjoint_problems(name, 4)
    got = solve_adjoint(op, psi, evals, G, tol=1e-10, maxiter=400)
    ref = reference_solve_adjoint(op, psi, evals, G, tol=1e-12, maxiter=2000)
    assert got.converged and ref.converged
    u, u_ref = (potential_gradient(mesh, psi, r.x) for r in (got, ref))
    assert np.linalg.norm(u - u_ref) <= 1e-9 * np.linalg.norm(u_ref)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("name", ["H2", "LiH"])
def test_solve_adjoint_true_residual_tracks_the_estimate(
    adjoint_problems, name, tol
):
    """The estimate lives in the preconditioner's norm; the residual the
    caller cares about is the plain one, so it is measured."""
    _, op, psi, evals, G, _ = adjoint_problems(name, 4)
    res = solve_adjoint(op, psi, evals, G, tol=tol, maxiter=400)
    assert res.converged and res.residuals.max() <= tol
    assert _true_residual(op, psi, evals, G, res.x).max() <= 2 * tol


def test_solve_adjoint_iterations_flat_under_refinement(adjoint_problems):
    """ROADMAP item 2's gate: >= 4x fewer iterations than the oracle, and
    flat (+-20 %) from 4 to 6 cells per axis where the plain count grows."""
    from tests.reference.minres import reference_solve_adjoint

    counts = {}
    for cells in (4, 6):
        _, op, psi, evals, G, _ = adjoint_problems("H2", cells)
        res = solve_adjoint(op, psi, evals, G, tol=1e-6, maxiter=400)
        # the oracle on the occupied column alone: no dead column to wait for
        plain = reference_solve_adjoint(
            op, psi[:, :1], evals[:1], G[:, :1], tol=1e-6, maxiter=2000
        )
        assert res.converged and plain.converged
        assert 4 * res.iterations <= plain.iterations
        counts[cells] = (res.iterations, plain.iterations)
    assert abs(counts[6][0] - counts[4][0]) <= 0.2 * counts[4][0]
    assert counts[6][1] >= 1.5 * counts[4][1]  # what the preconditioner removes


def test_solve_adjoint_fractional_occupations_solve_every_needed_column(
    adjoint_problems,
):
    """No occupation threshold: a second state holding ~1e-2 of an electron
    is solved by the same inequality that skips the empty ones."""
    from repro.core.occupations import find_fermi_level
    from tests.reference.minres import reference_solve_adjoint

    mesh, op, psi, evals, _, dr = adjoint_problems("H2", 4)
    psi, evals = psi[:, :2], evals[:2]  # the well-converged pair
    occ = find_fermi_level([evals], [1.0], 1.0, 0.03, degeneracy=1.0).occupations[0]
    assert 3e-3 < occ[1] < 3e-2
    G = adjoint_rhs(mesh, psi, occ, dr)
    tol = 1e-8
    got = solve_adjoint(op, psi, evals, G, tol=tol, maxiter=400)
    ref = reference_solve_adjoint(op, psi, evals, G, tol=1e-12, maxiter=4000)
    assert got.converged and ref.converged and np.all(got.column_iterations > 0)
    u, u_ref = (potential_gradient(mesh, psi, r.x) for r in (got, ref))
    assert np.linalg.norm(u - u_ref) <= 10 * tol * np.linalg.norm(u_ref)


def test_solve_adjoint_spends_no_applies_on_dead_columns(adjoint_problems):
    """H2's three buffer columns (norm ~1e-110 at T = 1e-3) never reach the
    operator: every apply is one column wide."""
    from repro.hpc.flops import FlopLedger

    _, op, psi, evals, G, _ = adjoint_problems("H2", 4)
    norms = np.linalg.norm(G, axis=0)
    assert np.all(norms[1:] < 1e-100) and np.all(norms[1:] > 0)

    class Counting:
        mesh = op.mesh
        widths = []

        def apply(self, X):
            self.widths.append(X.shape[1])
            return op.apply(X)

    ledger = FlopLedger()
    res = solve_adjoint(
        Counting(), psi, evals, G, tol=1e-6, maxiter=150, ledger=ledger
    )
    assert res.converged and list(res.column_iterations[1:]) == [0, 0, 0]
    assert Counting.widths == [1] * res.iterations
    assert not res.x[:, 1:].any()
    # the preconditioner's GEMMs are charged inside the Adjoint region: the
    # whole block once (the norms that rank the columns), then live columns
    assert ledger["Adjoint"].calls == 1
    assert ledger["fdm_gemm"].flops_fp64 == op.mesh.fdm.flops * (4 + res.iterations)


# ---------------------------------------------------------------------------
# a spin-unpolarized target: spin 0 is solved and mirrored onto spin 1


@pytest.fixture(scope="module")
def he_target():
    """He from a spin-restricted LDA SCF: bitwise-equal spin columns of the
    density and of its LDA potential."""
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation
    from repro.xc.lda import LDA

    calc = DFTCalculation(
        AtomicConfiguration(["He"], [[0, 0, 0]]), xc=LDA(), padding=6.0,
        cells_per_axis=3, degree=2, nstates=3,
    )
    return calc, calc.run()


def _invert(calc, rho_spin, v_xc, iterations=4):
    from repro.invdft import InverseDFT

    inv = InverseDFT(
        calc.mesh, calc.config, rho_spin, nstates=3, minres_tol=1e-6,
        minres_maxiter=60,
    )
    return inv.run(v_xc, eta=1.0, max_iterations=iterations, tol=0.0)


def test_invdft_mirrors_a_spin_symmetric_target(he_target):
    calc, res = he_target
    assert np.array_equal(res.rho_spin[:, 0], res.rho_spin[:, 1])
    out = _invert(calc, res.rho_spin, res.v_xc_spin.copy())
    # one spin's adjoint columns per update: spin 0 alone was solved
    assert all(h["adjoint_columns"][1] == 3 for h in out.history)
    np.testing.assert_array_equal(out.v_xc[:, 0], out.v_xc[:, 1])
    np.testing.assert_array_equal(out.rho_ks[:, 0], out.rho_ks[:, 1])
    np.testing.assert_array_equal(out.eigenvalues[0], out.eigenvalues[1])

    # one ulp on spin 1's starting v_xc at one interior node: not symmetric,
    # so the two-spin loop runs, and lands where the mirrored run did
    v1 = res.v_xc_spin.copy()
    node = calc.mesh.free[calc.mesh.free.size // 2]
    v1[node, 1] = np.nextafter(v1[node, 1], np.inf)
    both = _invert(calc, res.rho_spin, v1)
    assert all(h["adjoint_columns"][1] == 6 for h in both.history)
    np.testing.assert_allclose(
        [h["density_error"] for h in both.history],
        [h["density_error"] for h in out.history], rtol=1e-6,
    )
    np.testing.assert_allclose(both.v_xc, out.v_xc, rtol=1e-6)
