"""Complex-step oracles for the back-propagated neural functionals.

Until back-propagation replaced it, this *was* the production path: every
pointwise derivative of a neural functional came from one complex-step
evaluation of ``exc_density`` per input, and the trainer's mixed derivative
``d/d theta [a . d e / d x]`` from a complex step on the inputs composed with
a (holomorphic) reverse pass on the parameters.  It needs no chain rule and no
second-derivative code, which is what makes it a good oracle for the
hand-written passes in :mod:`repro.ml.nn`, :mod:`repro.ml.descriptors`,
:mod:`repro.xc.mlxc` and :mod:`repro.ml.training`:

* :func:`reference_xc_evaluate` — ``XCFunctional.evaluate`` by complex step
  for any functional (for LDA/PBE it is what the base class still runs);
* :func:`reference_param_grad` — the complex-safe forward / reverse pass
  with ``(z, a)`` caches and ``elu_prime(z)``;
* :func:`reference_loss_and_grad` — the composite loss and its parameter
  gradient over all five pointwise inputs.
"""

from __future__ import annotations

import numpy as np

from repro.constants import RHO_FLOOR
from repro.ml.descriptors import network_inputs
from repro.ml.nn import elu, elu_prime
from repro.xc.base import XCOutput

__all__ = [
    "reference_loss_and_grad",
    "reference_param_grad",
    "reference_xc_evaluate",
]

#: the production step of ``repro.xc.base``
CSTEP = 1e-30
#: the step the trainer used for its input perturbation
H_CSTEP = 1e-25


def reference_xc_evaluate(functional, *args, step: float = CSTEP) -> XCOutput:
    """``evaluate`` with every derivative by complex step on ``exc_density``.

    ``args`` are the 2 / 5 pointwise inputs (densities, contractions),
    clamped and masked as ``XCFunctional.evaluate`` does.
    """
    args = [np.asarray(a, dtype=float) for a in args]
    args[0], args[1] = np.maximum(args[0], 0.0), np.maximum(args[1], 0.0)
    live = (args[0] + args[1]) > RHO_FLOOR
    exc = np.where(live, np.real(functional.exc_density(*args)), 0.0)
    derivs = []
    for j in range(len(args)):
        pert = [a.astype(complex) if i == j else a for i, a in enumerate(args)]
        pert[j] = pert[j] + 1j * step
        d = np.imag(functional.exc_density(*pert)) / step
        derivs.append(np.where(live, d, 0.0))
    return XCOutput(
        exc=exc,
        vrho=np.stack(derivs[:2], axis=-1),
        vsigma=np.stack(derivs[2:5], axis=-1) if len(args) > 2 else None,
    )


def reference_param_grad(net, X: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Flat ``d sum(grad_out * net(X)) / d theta``, complex-safe.

    Complex activations with real weights propagate holomorphically (no
    conjugation); the caller takes the real or imaginary part.
    """
    a = np.atleast_2d(X)
    layers = []
    last = len(net.weights) - 1
    for li, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W + b
        layers.append((a, z))
        a = z if li == last else elu(z, net.alpha)
    dW = [None] * len(net.weights)
    db = [None] * len(net.biases)
    delta = np.atleast_2d(grad_out)
    for li in range(last, -1, -1):
        a_prev, z = layers[li]
        if li != last:
            delta = delta * elu_prime(z, net.alpha)
        dW[li] = a_prev.T @ delta
        db[li] = delta.sum(axis=0)
        delta = delta @ net.weights[li].T
    return net._flatten(dW, db)


def _sample_inputs(s) -> list[np.ndarray]:
    return [s.rho_spin[:, 0], s.rho_spin[:, 1], *s.sigmas]


def _weighted_e_param_grad(trainer, s, point_weights, input_pert=None):
    """``d/d theta sum_I point_weights_I e_I``; with ``input_pert`` the inputs
    are complex-perturbed along it and ``Im / h`` of the parameter gradient —
    the mixed second derivative — is returned."""
    dtype = float if input_pert is None else complex
    args = [a.astype(dtype) for a in _sample_inputs(s)]
    if input_pert is not None:
        args = [a + 1j * H_CSTEP * d for a, d in zip(args, input_pert)]
    ru, rd, s_uu, s_ud, s_dd = args
    feats, pref, _ = network_inputs(ru, rd, s_uu + 2.0 * s_ud + s_dd)
    pref = np.where(s.live, pref, 0.0)
    flat = reference_param_grad(
        trainer.functional.network, feats, (point_weights * pref)[:, None]
    )
    return np.real(flat) if input_pert is None else np.imag(flat) / H_CSTEP


def reference_loss_and_grad(trainer) -> tuple[dict, np.ndarray]:
    """``MLXCTrainer.loss_and_grad`` by complex step times backprop."""
    grad = np.zeros(trainer.functional.network.n_params)
    le, lv = 0.0, 0.0
    n = len(trainer.samples)
    for s in trainer.samples:
        mesh, w = s.mesh, s.mesh.mass_diag
        out = reference_xc_evaluate(trainer.functional, *_sample_inputs(s))
        v_ml = out.potential(mesh, s.grad_up, s.grad_dn)
        # --- energy term ----------------------------------------------------
        norm_e = max(abs(s.exc_target), 1e-3)
        resid_e = (float(mesh.integrate(out.exc)) - s.exc_target) / norm_e
        le += resid_e**2
        coeff = trainer.lambda_energy / n * 2.0 * resid_e / norm_e
        grad += _weighted_e_param_grad(trainer, s, coeff * w)
        # --- potential term -------------------------------------------------
        dv = (v_ml - s.v_target) * s.live[:, None]
        den = float(np.sum(w[:, None] * (s.rho_spin * s.v_target) ** 2)) + 1e-30
        lv += float(np.sum(w[:, None] * (s.rho_spin * dv) ** 2)) / den
        # dL/dv_sI, translated to pointwise weights on vrho, vsigma
        a = trainer.lambda_potential / n * 2.0 / den * w[:, None] * s.rho_spin**2 * dv
        badj_u = -mesh.divergence_adjoint(a[:, 0])
        badj_d = -mesh.divergence_adjoint(a[:, 1])
        c_uu = 2.0 * np.einsum("ij,ij->i", s.grad_up, badj_u)
        c_dd = 2.0 * np.einsum("ij,ij->i", s.grad_dn, badj_d)
        c_ud = np.einsum("ij,ij->i", s.grad_dn, badj_u) + np.einsum(
            "ij,ij->i", s.grad_up, badj_d
        )
        pert = [a[:, 0], a[:, 1], c_uu, c_ud, c_dd]
        grad += _weighted_e_param_grad(trainer, s, np.ones(mesh.nnodes), pert)
    total = (trainer.lambda_energy * le + trainer.lambda_potential * lv) / n
    return {"total": total, "energy": le / n, "potential": lv / n}, grad
