"""Back-propagated MLXC against its complex-step oracle (``tests/reference``).

The neural functional gets ``vrho`` / ``vsigma`` from one forward
and one reverse pass, and the trainer its mixed parameter/input derivative
from real forward-over-reverse passes; the complex-step forms they replaced
are the oracles here.  Tier 1 turns ``RuntimeWarning`` into an error, so
every case below also asserts that the floors and branches stay silent.
"""

import copy
import threading
import tracemalloc

import numpy as np
import pytest

from repro.constants import RHO_FLOOR
from repro.fem.mesh import uniform_mesh
from repro.ml.descriptors import phi_spin_factor
from repro.ml.nn import BLOCK_ROWS, MLP
from repro.ml.training import MLXCTrainer, assemble_sample
from repro.obs import set_enabled, trace_region
from repro.xc.gga import PBE
from repro.xc.lda import LDA
from repro.xc.mlxc import MLXC
from tests.reference.mlxc import (
    reference_loss_and_grad,
    reference_param_grad,
    reference_xc_evaluate,
)

_S_PREF = (3.0 * np.pi**2) ** (1.0 / 3.0)


def _assert_matches_oracle(out, ref, scales=None, tol=1e-10):
    """``exc`` bitwise, exact zeros in the same places, and every derivative
    within ``tol`` relative — to its own magnitude or, where ``scales`` gives
    one, to the natural magnitude ``p / x`` of ``d e / d x`` at that point (a
    derivative that changes sign has no magnitude of its own there)."""
    assert np.array_equal(out.exc, ref.exc)
    for name in ("vrho", "vsigma"):
        got, want = getattr(out, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        if got is None:
            continue
        assert got.shape == want.shape
        assert np.array_equal(got == 0.0, want == 0.0), name
        size = np.abs(want)
        if scales is not None:
            size = np.maximum(size, scales[name][:, None])
        assert np.all(np.abs(got - want) <= tol * size), name


# ----- (a) evaluate vs the complex-step oracle ---------------------------------
@pytest.mark.parametrize(
    "functional",
    [MLXC(seed=1), MLXC.pretrained()],
    ids=["MLXC", "MLXC-pretrained"],
)
def test_backprop_evaluate_matches_complex_step_over_descriptor_range(functional):
    rng = np.random.default_rng(0)
    n = 2000
    rho = 10.0 ** rng.uniform(-3, 1, n)
    xi = rng.uniform(-1, 1, n)
    s = 10.0 ** rng.uniform(-2, 1, n)
    sigma = (s * 2.0 * rho ** (4.0 / 3.0) / _S_PREF) ** 2
    args = [
        0.5 * rho * (1 + xi), 0.5 * rho * (1 - xi),
        sigma * ((1 + xi) / 2) ** 2, sigma * (1 + xi) * (1 - xi) / 4,
        sigma * ((1 - xi) / 2) ** 2,
    ]
    pref = rho ** (4.0 / 3.0) * phi_spin_factor(xi)
    scales = {"vrho": pref / rho, "vsigma": pref / sigma}
    _assert_matches_oracle(
        functional.evaluate(*args), reference_xc_evaluate(functional, *args), scales
    )


def test_backprop_evaluate_matches_complex_step_at_the_edges():
    """rho at and below the floor, a negative (clamped) density, one empty
    spin channel, sigma = 0, sigma_ud < 0 (and a negative total sigma).

    Where xi = +-1 the oracle itself is the delicate side: ``(1 -+ xi)^(4/3)``
    has a branch point there, so a complex step h leaves an O(h^(1/3)) error
    (1e-10 at the production h = 1e-30 — hence the smaller step), and phi' is
    Hoelder-1/3 in xi, so the polarized densities are powers of two, for
    which the complex division forming xi returns a real part of exactly 1.
    """
    f = RHO_FLOOR
    columns = [
        # rho_up, rho_dn, s_uu,  s_ud,  s_dd
        (f,       0.0,    0.1,   0.0,   0.0),   # rho == floor: vacuum
        (0.5 * f, 0.5 * f, 0.1,  0.0,   0.1),   # rho == floor, split
        (0.3 * f, 0.3 * f, 0.0,  0.0,   0.0),   # below the floor
        (0.0,     0.0,    0.0,   0.0,   0.0),
        (2 * f,   2 * f,  0.0,   0.0,   0.0),   # just above it
        (-0.2,    0.5,    0.2,   0.1,   0.2),   # negative input: xi = -1
        (0.25,    0.0,    0.3,   0.0,   0.0),   # xi = +1
        (0.0,     0.5,    0.0,   0.0,   0.4),   # xi = -1
        (2.0**-30, 0.0,   1e-20, 0.0,   0.0),   # xi = +1, low density
        (0.3,     0.2,    0.0,   0.0,   0.0),   # sigma = 0
        (0.3,     0.2,    0.1,  -0.02,  0.1),   # sigma_ud < 0
        (0.3,     0.2,    0.1,  -0.3,   0.1),   # total sigma < 0
        (0.3,     0.2,    0.1,   0.05,  0.2),   # sigma_ud > 0
    ]
    args = [np.array(col) for col in zip(*columns)]
    functional = MLXC(seed=2)
    out = functional.evaluate(*args)
    _assert_matches_oracle(out, reference_xc_evaluate(functional, *args, step=1e-90))
    assert np.all(out.exc[:4] == 0.0) and np.all(out.vrho[:4] == 0.0)
    assert np.all(out.exc[4:] != 0.0)
    assert np.all(np.isfinite(out.vrho)) and np.all(np.isfinite(out.vsigma))
    # e sees only the total sigma
    assert np.array_equal(out.vsigma[:, 1], 2.0 * out.vsigma[:, 0])
    assert np.array_equal(out.vsigma[:, 2], out.vsigma[:, 0])


def test_evaluate_exc_is_the_whole_array_forward_bitwise():
    """``evaluate`` runs the network in row blocks; its ``exc`` is, bit for
    bit, ``exc_density``'s one forward pass over every row."""
    rng = np.random.default_rng(4)
    n = 3 * BLOCK_ROWS + 50
    rho, xi = 10.0 ** rng.uniform(-3, 1, n), rng.uniform(-0.9, 0.9, n)
    sigma = rng.uniform(0.0, 1.0, n) * rho ** (8.0 / 3.0)
    args = [0.5 * rho * (1 + xi), 0.5 * rho * (1 - xi), 0.25 * sigma, 0.0 * sigma, 0.25 * sigma]
    functional = MLXC.pretrained()
    assert np.array_equal(functional.evaluate(*args).exc, functional.exc_density(*args))


# ----- (d) the network's own passes ----------------------------------------------
def test_input_jacobian_matches_fd_for_four_inputs():
    net = MLP((4, 12, 12, 1), seed=3)
    X = np.random.default_rng(0).normal(size=(6, 4))
    F, J = net.input_jacobian(X)
    cache: list = []
    assert np.array_equal(F, net.forward(X, cache)[:, 0])
    assert J.shape == (6, 4) and len(cache) == 3
    h = 1e-6
    for j in range(4):
        dX = np.zeros_like(X)
        dX[:, j] = h
        fd = (net.forward(X + dX) - net.forward(X - dX))[:, 0] / (2 * h)
        assert np.allclose(J[:, j], fd, rtol=1e-6, atol=1e-9)


def test_tangent_and_adjoint_passes_match_complex_oracle():
    """``forward_tangent`` is the directional derivative, and ``backward``
    with a tangent is the parameter gradient of
    ``sum(g * out + gt * d out)`` — the complex oracle perturbs the inputs
    along the direction and reads the mixed derivative off the imaginary
    part of its holomorphic reverse pass."""
    rng = np.random.default_rng(1)
    net = MLP((4, 9, 7, 1), seed=5)
    net.set_params(net.get_params() + 0.3 * rng.normal(size=net.n_params))
    X, dX = rng.normal(size=(11, 4)), rng.normal(size=(11, 4))
    g, gt = rng.normal(size=(11, 1)), rng.normal(size=(11, 1))

    _, J = net.input_jacobian(X)
    cache: list = []
    net.forward(X, cache)
    dF, tangents = net.forward_tangent(cache, dX)
    assert np.allclose(dF[:, 0], np.einsum("nj,nj->n", J, dX), rtol=1e-12, atol=1e-14)
    gW, gb, _ = net.backward(cache, g, tangents, gt)
    got = net._flatten(gW, gb)

    h = 1e-25
    want = reference_param_grad(net, X, g) + np.imag(
        reference_param_grad(net, X + 1j * h * dX, gt)
    ) / h
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # without a tangent the sweep is plain back-propagation
    gW, gb, dX_adj = net.backward(cache, g)
    plain = reference_param_grad(net, X, g)
    assert np.max(np.abs(net._flatten(gW, gb) - plain)) <= 1e-13 * np.max(np.abs(plain))
    assert np.allclose(dX_adj, g * J, rtol=1e-12, atol=1e-14)


def test_blocked_passes_match_one_pass_over_every_row():
    """``input_jacobian`` and ``value_and_param_grad`` run per row block
    (three here, the last one ragged) and match one cached pass over all
    rows: ``F`` bitwise, the summed block gradients to rounding."""
    rng = np.random.default_rng(1)
    n = 2 * BLOCK_ROWS + 37
    net = MLP((4, 9, 7, 1), seed=5)
    net.set_params(net.get_params() + 0.3 * rng.normal(size=net.n_params))
    X, dX = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
    g, gt = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))

    F, J = net.input_jacobian(X)
    cache: list = []
    assert np.array_equal(F, net.forward(X, cache)[:, 0])
    delta = np.ones((n, 1)) @ net.weights[-1].T
    for li in range(len(net.weights) - 1, 0, -1):
        delta = (delta * cache[li][1]) @ net.weights[li - 1].T
    assert np.allclose(J, delta, rtol=1e-14, atol=1e-15)
    for with_tangent in (False, True):
        tangents = net.forward_tangent(cache, dX)[1] if with_tangent else None
        gW, gb, _ = net.backward(cache, g, tangents, gt if with_tangent else None)
        want = net._flatten(gW, gb)
        out, got = net.value_and_param_grad(X, g, *((dX, gt) if with_tangent else ()))
        assert np.array_equal(out[:, 0], F)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_residual_pass_matches_forward_then_param_grad():
    """``residual_and_param_grad``, one cached forward per row block whose
    residual its reverse sweep takes at once, returns the same bits as the
    two passes it replaces: a whole-array ``forward``, then
    ``value_and_param_grad`` on the cotangent ``2 r / n``."""
    rng = np.random.default_rng(2)
    n = 3 * BLOCK_ROWS + 11
    net = MLP((3, 8, 8, 2), seed=4)
    net.set_params(net.get_params() + 0.3 * rng.normal(size=net.n_params))
    X, y = rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
    resid, grad = net.residual_and_param_grad(X, y)
    want = net.forward(X) - y
    _, want_grad = net.value_and_param_grad(X, 2.0 * want / n)
    assert np.array_equal(resid, want)
    assert np.array_equal(grad, want_grad)


def test_passes_leave_the_network_as_they_found_it(toy_samples):
    """Every per-call array (activations, ELU slopes, tangents) lives in the
    caller's cache or in the pass's own block loop: the network's attributes
    are the same objects holding the same values after every pass, a full
    blocked training epoch included."""
    net = MLP((3, 16, 16, 1), seed=2)
    before = {k: (v, copy.deepcopy(v)) for k, v in vars(net).items()}
    X = np.random.default_rng(3).normal(size=(9, 3))
    cache: list = []
    net.forward(X, cache)
    net.forward(X)
    net.input_jacobian(X)
    _, tangents = net.forward_tangent(cache, X)
    net.backward(cache, np.ones((9, 1)), tangents, np.ones((9, 1)))
    big = np.random.default_rng(4).normal(size=(2 * BLOCK_ROWS + 5, 3))
    net.input_jacobian(big)
    net.value_and_param_grad(big, big[:, :1], big, big[:, 1:2])
    net.residual_and_param_grad(big, big[:, :1])
    MLXCTrainer(toy_samples, MLXC(network=net)).loss_and_grad()
    assert vars(net).keys() == before.keys()
    for key, (obj, snapshot) in before.items():
        assert vars(net)[key] is obj, key
        if isinstance(obj, list):
            assert all(np.array_equal(a, b) for a, b in zip(obj, snapshot)), key
        else:
            assert obj == snapshot, key


def test_threads_sharing_one_functional_match_a_serial_run():
    """The serve workers and the SCF's channel threads share one
    ``MLXC.pretrained()``: concurrent evaluations on a Dirichlet mesh (the
    gathered path) are bitwise the serial ones."""
    mesh = uniform_mesh((8.0, 8.0, 8.0), (3, 3, 3), degree=3)
    spins = []
    for c in ([3.7, 4.2, 4.1], [4.4, 3.9, 3.6]):
        rho = np.exp(-np.sum((mesh.node_coords - np.array(c)) ** 2, axis=1) / 2.0)
        rho[mesh.boundary_mask] = 0.0
        spins.append(np.stack([0.6 * rho, 0.4 * rho], axis=1))
    functional = MLXC.pretrained()
    serial = [functional.potential_and_energy(mesh, spin) for spin in spins]
    results: dict = {}

    def work(i):
        results[i] = [functional.potential_and_energy(mesh, spins[i]) for _ in range(4)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, (v, e) in enumerate(serial):
        for v_t, e_t in results[i]:
            assert e_t == e and np.array_equal(v_t, v)


# ----- (b), (c) the trainer --------------------------------------------------------
def _toy_sample(cells):
    """The closed-shell toy Gaussian on a (cells)^3 mesh of degree 3."""
    mesh = uniform_mesh((8.0, 8.0, 8.0), (cells,) * 3, degree=3)
    rho = np.exp(-np.sum((mesh.node_coords - 4.0) ** 2, axis=1) / 2.0)
    rho *= 2.0 / float(mesh.integrate(rho))
    spin = 0.5 * np.stack([rho, rho], axis=1)
    return assemble_sample("toy", mesh, spin, *LDA().potential_and_energy(mesh, spin))


@pytest.fixture(scope="module")
def toy_samples():
    """The closed-shell toy Gaussian of ``test_ml`` and a polarized twin that
    shares its name and its mesh (as the members of a bond scan do)."""
    toy = _toy_sample(3)
    mesh, rho = toy.mesh, toy.rho_spin.sum(axis=1)
    polarized = np.stack([0.7 * rho, 0.3 * rho], axis=1)
    return [
        toy,
        assemble_sample(
            "toy", mesh, polarized, *PBE().potential_and_energy(mesh, polarized)
        ),
    ]


@pytest.mark.parametrize(
    "functional", [MLXC(seed=3), MLXC.pretrained()], ids=["MLXC", "MLXC-pretrained"]
)
def test_two_samples_sharing_name_and_mesh_train_and_match_oracle(toy_samples, functional):
    """Regression: ``samples.index(s)`` on an ``eq=True`` dataclass with array
    fields raised on the second sample.  Also (b): the gradient against the
    complex-step-times-backprop oracle."""
    tr = MLXCTrainer(toy_samples, functional)
    losses, grad = tr.loss_and_grad()
    ref_losses, ref_grad = reference_loss_and_grad(tr)
    for key, want in ref_losses.items():
        assert losses[key] == pytest.approx(want, rel=1e-12)
    assert tr.loss() == losses
    assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))
    assert toy_samples[0] != toy_samples[1]  # identity, not array, equality
    for name in ("sigmas", "weighted_rho2"):  # computed once per sample
        assert getattr(toy_samples[0], name) is getattr(toy_samples[0], name)
    assert "potential_norm" in vars(toy_samples[0])


def test_blocked_gradient_over_three_blocks_and_a_ragged_tail(toy_samples):
    """The evaluation and the parameter pass both run in row blocks; on
    samples whose rows span more than two blocks with a partial last one,
    the gradient is the oracle's, and every epoch's span records the split."""
    rows = [s.network_rows for s in toy_samples]
    assert all(r > 2 * BLOCK_ROWS and r % BLOCK_ROWS for r in rows)
    tr = MLXCTrainer(toy_samples, MLXC(seed=4))
    tape: list = []
    tr._sample_terms(toy_samples[0], tape)
    assert tape[1][0].shape[0] == rows[0]
    losses, grad = tr.loss_and_grad()
    ref_losses, ref_grad = reference_loss_and_grad(tr)
    for key, want in ref_losses.items():
        assert losses[key] == pytest.approx(want, rel=1e-12)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))

    prev = set_enabled(True)
    try:
        with trace_region("probe") as root:
            tr.train(epochs=2)
    finally:
        set_enabled(prev)
    epochs = root.children[0].children
    assert [e.name for e in epochs] == ["MLXC-epoch"] * 2
    blocks = sum(-(-r // BLOCK_ROWS) for r in rows)
    assert all(e.attrs == {"epoch": i, "rows": sum(rows), "blocks": blocks}
               for i, e in enumerate(epochs))


def test_trainer_memory_is_one_block_not_the_grid():
    """The traced peak of one ``loss_and_grad`` grows with the per-row
    arrays (densities, descriptors, residuals), not with the network's
    (rows, width) activations: 4x the rows is well under 1.5x the peak."""
    small, large = _toy_sample(3), _toy_sample(5)
    assert large.network_rows >= 4 * small.network_rows
    peaks = []
    for sample in (small, large):
        tr = MLXCTrainer([sample], MLXC(seed=0))
        tr.loss_and_grad()  # the mesh's operators are built once, untraced
        tracemalloc.start()
        try:
            tr.loss_and_grad()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_trainer_gathers_by_the_evaluations_rows_between_the_two_floors():
    """``evaluate`` keeps rho > RHO_FLOOR, ``TrainingSample.live`` rho >
    10 RHO_FLOOR.  Nodes between the two are in the network's rows but out
    of the potential loss; boundary nodes (rho = 0) are in neither.  The
    gradient still matches the oracle, which masks with ``s.live``."""
    mesh = uniform_mesh((8.0, 8.0, 8.0), (3, 3, 3), degree=3)
    r2 = np.sum((mesh.node_coords - np.array([3.8, 4.1, 4.2])) ** 2, axis=1)
    rho = np.exp(-r2 / 2.0)
    rho *= 2.0 / float(mesh.integrate(rho))
    rho[mesh.boundary_mask] = 0.0
    rho[mesh.free[::41]] = 5.0 * RHO_FLOOR
    spin = np.stack([0.55 * rho, 0.45 * rho], axis=1)
    sample = assemble_sample("edge", mesh, spin, *LDA().potential_and_energy(mesh, spin))
    tr = MLXCTrainer([sample])
    assert type(tr.functional) is MLXC  # the default functional
    tape: list = []
    tr._sample_terms(sample, tape)
    assert sample.live.sum() < tape[0].size < mesh.nnodes
    losses, grad = tr.loss_and_grad()
    ref_losses, ref_grad = reference_loss_and_grad(tr)
    for key, want in ref_losses.items():
        assert losses[key] == pytest.approx(want, rel=1e-12)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))


#: ``MLXCTrainer([toy], MLXC.pretrained()).train(epochs=3)`` at the parent
#: commit (2c0f6cc, complex-step trainer), one BLAS thread
PARENT_HISTORY = [
    {"total": 0.001026447788677708, "energy": 0.0007448648524217209,
     "potential": 0.000281582936255987},
    {"total": 4.406402425531848, "energy": 2.1839945642824694,
     "potential": 2.222407861249378},
    {"total": 0.21856894827445802, "energy": 0.09940410742213926,
     "potential": 0.11916484085231877},
]


def test_training_history_pinned_from_parent_and_resume_bitwise(toy_samples, tmp_path):
    toy = toy_samples[:1]
    full_tr = MLXCTrainer(toy, MLXC.pretrained())
    history = full_tr.train(epochs=3)
    assert len(history) == len(PARENT_HISTORY)
    for got, want in zip(history, PARENT_HISTORY):
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-9), key

    ck = str(tmp_path / "mlxc.ckpt")
    MLXCTrainer(toy, MLXC.pretrained()).train(epochs=2, checkpoint_path=ck)
    res_tr = MLXCTrainer(toy, MLXC.pretrained())
    assert res_tr.train(epochs=3, resume_from=ck) == history
    np.testing.assert_array_equal(
        res_tr.functional.network.get_params(),
        full_tr.functional.network.get_params(),
    )
