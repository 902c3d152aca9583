"""ML substrate: MLP forward/backward, descriptors, MLXC functional, trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.mesh import uniform_mesh
from repro.ml.descriptors import (
    descriptors_from_spin_density,
    feature_map,
    network_inputs,
    phi_spin_factor,
    reduced_gradient,
)
from repro.ml.nn import MLP, Adam, elu, elu_prime
from repro.ml.training import MLXCTrainer, assemble_sample
from repro.xc.lda import LDA
from repro.xc.mlxc import MLXC


# ----- activations / network ---------------------------------------------------
def test_elu_values_and_derivative():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(elu(x), [np.exp(-2) - 1, 0.0, 3.0])
    assert np.allclose(elu_prime(x), [np.exp(-2), 1.0, 1.0])


def test_elu_complex_step_consistency():
    h = 1e-30
    for x0 in (-1.3, 0.7):
        d = np.imag(elu(np.array([x0 + 1j * h])))[0] / h
        assert np.isclose(d, elu_prime(np.array([x0]))[0], rtol=1e-12)


def test_mlp_shapes_and_param_roundtrip():
    net = MLP((3, 8, 8, 1), seed=1)
    X = np.random.default_rng(0).normal(size=(5, 3))
    out = net.forward(X)
    assert out.shape == (5, 1)
    theta = net.get_params()
    assert theta.size == net.n_params == 3 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1
    net.set_params(theta * 0)
    assert np.allclose(net.forward(X), 0.0)
    net.set_params(theta)
    assert np.allclose(net.forward(X), out)
    with pytest.raises(ValueError):
        net.set_params(theta[:-1])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_mlp_param_gradient_matches_fd(seed):
    """Property: backprop parameter gradients match finite differences."""
    rng = np.random.default_rng(seed)
    net = MLP((2, 6, 1), seed=seed)
    X = rng.normal(size=(4, 2))
    w = rng.normal(size=(4, 1))
    _, grad = net.value_and_param_grad(X, w)
    theta = net.get_params()
    for i in rng.choice(theta.size, 3, replace=False):
        h = 1e-6
        tp = theta.copy(); tp[i] += h
        net.set_params(tp)
        lp = float(np.sum(w * net.forward(X)))
        tm = theta.copy(); tm[i] -= h
        net.set_params(tm)
        lm = float(np.sum(w * net.forward(X)))
        net.set_params(theta)
        assert np.isclose(grad[i], (lp - lm) / (2 * h), rtol=1e-4, atol=1e-8)


def test_mlp_input_jacobian_matches_fd():
    net = MLP((3, 10, 1), seed=2)
    X = np.array([[0.2, -0.4, 1.0]])
    F, J = net.input_jacobian(X)
    assert np.array_equal(F, net.forward(X)[:, 0])
    for j in range(3):
        h = 1e-6
        Xp = X.copy(); Xp[0, j] += h
        Xm = X.copy(); Xm[0, j] -= h
        fd = (net.forward(Xp) - net.forward(Xm))[0, 0] / (2 * h)
        assert np.isclose(J[0, j], fd, rtol=1e-5, atol=1e-9)


def test_mlp_save_load_roundtrip(tmp_path):
    net = MLP((3, 5, 1), seed=3)
    p = str(tmp_path / "net.npz")
    net.save(p)
    net2 = MLP.load(p)
    X = np.random.default_rng(1).normal(size=(4, 3))
    assert np.allclose(net.forward(X), net2.forward(X))


def test_mlp_load_rejects_non_npz(tmp_path):
    p = tmp_path / "garbage.npz"
    p.write_bytes(b"this is not a zip archive")
    with pytest.raises(ValueError, match="garbage.npz: unreadable"):
        MLP.load(str(p))


def test_mlp_load_rejects_missing_arrays(tmp_path):
    """An npz that is not a weights artifact carries no schema at all."""
    p = str(tmp_path / "partial.npz")
    np.savez(p, layer_sizes=np.array([3, 5, 1]))
    with pytest.raises(ValueError, match="wrong schema.*repro-weights"):
        MLP.load(p)


def test_adam_converges_on_quadratic():
    opt = Adam(lr=0.1)
    theta = np.array([5.0, -3.0])
    for _ in range(300):
        theta = opt.step(theta, 2 * (theta - np.array([1.0, 2.0])))
    assert np.allclose(theta, [1.0, 2.0], atol=1e-3)


# ----- descriptors ---------------------------------------------------------------
def test_phi_limits():
    assert np.isclose(phi_spin_factor(np.array([0.0]))[0], 1.0)
    assert np.isclose(phi_spin_factor(np.array([1.0]))[0], 2.0 ** (1.0 / 3.0))


def test_reduced_gradient_scaling():
    """s is invariant under uniform coordinate scaling rho -> l^3 rho(l r)."""
    rho = np.array([0.3])
    grad = np.array([0.1])
    s1 = reduced_gradient(rho, grad**2)
    lam = 2.0
    s2 = reduced_gradient(lam**3 * rho, (lam**4 * grad) ** 2)
    assert np.isclose(s1, s2, rtol=1e-12)


def test_descriptors_consistency():
    ru, rd = np.array([0.4]), np.array([0.2])
    rho, xi, s = descriptors_from_spin_density(
        ru, rd, np.array([0.01]), np.array([0.0]), np.array([0.01])
    )
    assert np.isclose(rho[0], 0.6)
    assert np.isclose(xi[0], (0.4 - 0.2) / 0.6)
    assert s[0] > 0
    f = feature_map(rho, xi, s)
    assert f.shape == (1, 3)
    assert 0 <= f[0, 2] < 1  # s/(1+s) bounded


# ----- MLXC functional -------------------------------------------------------------
def test_mlxc_scaling_prefactor_structure():
    """e_xc = rho^(4/3) phi F: doubling F doubles e_xc."""
    m = MLXC(seed=0)
    ru = rd = np.array([0.3])
    zero = np.zeros(1)
    e1 = m.exc_density(ru, rd, zero, zero, zero)
    for W in m.network.weights:
        W *= 1.0
    m.network.weights[-1] *= 2.0
    m.network.biases[-1] *= 2.0
    e2 = m.exc_density(ru, rd, zero, zero, zero)
    assert np.isclose(e2, 2 * e1, rtol=1e-12)


def test_mlxc_spin_symmetry():
    """Exchanging the spin channels leaves Eq. 3's prefactor rho^(4/3) phi(xi)
    and the rho and s features unchanged and flips the xi feature's sign:
    whatever spin asymmetry e_xc has is F_DNN's."""
    ru, rd = np.array([0.5, 0.3, 1e-3]), np.array([0.1, 0.3, 2e-3])
    sigma = np.array([0.2, 0.0, 1e-6])
    f_ab, p_ab, _ = network_inputs(ru, rd, sigma)
    f_ba, p_ba, _ = network_inputs(rd, ru, sigma)
    assert np.array_equal(p_ab, p_ba)
    assert np.array_equal(f_ab[:, [0, 2]], f_ba[:, [0, 2]])
    assert np.array_equal(f_ab[:, 1], -f_ba[:, 1])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: F_DNN is not even in ξ")
def test_mlxc_exc_is_spin_flip_symmetric():
    """e_xc(rho_up, rho_dn) == e_xc(rho_dn, rho_up) for the shipped network;
    it reads -0.5023 against -0.4638 at rho_up = 0.5, rho_dn = 0.1."""
    m = MLXC.pretrained()
    ru, rd = np.array([0.5]), np.array([0.1])
    zero = np.zeros(1)
    assert m.exc_density(ru, rd, zero, zero, zero) == m.exc_density(rd, ru, zero, zero, zero)


def test_mlxc_vacuum_zeroed():
    m = MLXC(seed=2)
    out = m.evaluate(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    assert np.all(out.exc == 0) and np.all(out.vrho == 0)


def test_mlxc_bootstrap_reproduces_lda():
    m = MLXC.bootstrapped_from(LDA(), epochs=150, n_samples=1500, seed=0)
    rng = np.random.default_rng(5)
    rho = 10.0 ** rng.uniform(-2, 0.5, 50)
    zero = np.zeros(50)
    e_ml = m.exc_density(rho / 2, rho / 2, zero, zero, zero)
    e_lda = LDA().exc_density(rho / 2, rho / 2)
    rel = np.abs(e_ml - e_lda) / np.abs(e_lda)
    assert np.median(rel) < 0.1


def test_mlxc_save_load(tmp_path):
    m = MLXC(seed=4)
    p = str(tmp_path / "mlxc.npz")
    m.save(p)
    m2 = MLXC.from_pretrained(p)
    ru = rd = np.array([0.2])
    zero = np.zeros(1)
    assert np.allclose(
        m.exc_density(ru, rd, zero, zero, zero),
        m2.exc_density(ru, rd, zero, zero, zero),
    )


def test_mlxc_rejects_wrong_architecture():
    with pytest.raises(ValueError):
        MLXC(network=MLP((2, 5, 1)))


# ----- trainer ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def toy_sample():
    mesh = uniform_mesh((8.0, 8.0, 8.0), (3, 3, 3), degree=3)
    r2 = np.sum((mesh.node_coords - 4.0) ** 2, axis=1)
    rho = np.exp(-r2 / 2.0)
    rho *= 2.0 / float(mesh.integrate(rho))
    spin = 0.5 * np.stack([rho, rho], axis=1)
    v_t, exc_t = LDA().potential_and_energy(mesh, spin)
    return assemble_sample("toy", mesh, spin, v_t, exc_t)


def test_trainer_gradient_matches_fd(toy_sample):
    tr = MLXCTrainer([toy_sample], MLXC(seed=3))
    losses, grad = tr.loss_and_grad()
    assert losses["total"] > 0
    net = tr.functional.network
    theta = net.get_params()
    rng = np.random.default_rng(0)
    for i in rng.choice(theta.size, 4, replace=False):
        h = 1e-6
        tp = theta.copy(); tp[i] += h
        net.set_params(tp); lp = tr.loss()["total"]
        tm = theta.copy(); tm[i] -= h
        net.set_params(tm); lm = tr.loss()["total"]
        fd = (lp - lm) / (2 * h)
        assert np.isclose(grad[i], fd, rtol=1e-4, atol=1e-9), i
    net.set_params(theta)


def test_trainer_reduces_loss(toy_sample):
    tr = MLXCTrainer([toy_sample], MLXC(seed=7))
    hist = tr.train(epochs=40, lr=3e-3)
    assert hist[-1]["total"] < 0.3 * hist[0]["total"]


def test_divergence_adjoint_identity(toy_sample):
    """<a, div u> == <adj(a), u> for random fields."""
    mesh = toy_sample.mesh
    rng = np.random.default_rng(1)
    a = rng.normal(size=mesh.nnodes)
    u = rng.normal(size=(mesh.nnodes, 3))
    lhs = float(np.dot(a, mesh.divergence(u)))
    rhs = float(np.sum(mesh.divergence_adjoint(a) * u))
    assert np.isclose(lhs, rhs, rtol=1e-10)


def test_trainer_requires_samples():
    with pytest.raises(ValueError):
        MLXCTrainer([])
