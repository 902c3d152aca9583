"""MLXC: the machine-learned exchange-correlation functional (paper Eq. 3).

.. math::

    e_{xc}^{ML}[\\rho](r) = \\rho^{4/3}(r)\\,\\phi(\\xi(r))\\,
        F^{DNN}(\\rho, \\xi, s),

with relative spin density ``xi``, reduced gradient ``s`` and the
``rho^(4/3) phi`` prefactor enforcing the known coordinate- and spin-scaling
relations; the form is translationally and rotationally equivariant by
construction (it depends on position only through scalar fields).

``F_DNN`` is a 5-layer x 80-neuron ELU network (:class:`repro.ml.nn.MLP`).
The pointwise derivatives come, as in the paper, from back-propagation: one
forward pass and one reverse pass to the network's inputs, block by block of
rows (:meth:`repro.ml.nn.MLP.input_jacobian`), and the descriptor chain rule
of :func:`repro.ml.descriptors.network_inputs_with_partials` — hand-written
passes in place of the paper's autodiff framework.  Nothing of the network's
passes outlives them: a trainer that asks for a tape gets the descriptors
and their partials, and runs its own parameter pass
(:mod:`repro.ml.training`).  The base class then adds
the gradient/divergence term with the mesh recovery operators.
``exc_density`` stays dtype-agnostic so that the complex-step evaluation
(``tests/reference``) remains the oracle for all of this.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.ml.descriptors import (
    feature_map,
    network_inputs,
    network_inputs_with_partials,
    phi_spin_factor,
)
from repro.ml.nn import MLP, Adam

from .base import RHO_FLOOR, XCFunctional

__all__ = ["MLXC", "DEFAULT_LAYERS"]

#: paper architecture: 3 descriptors -> 5 hidden layers x 80 neurons -> F
DEFAULT_LAYERS = (3, 80, 80, 80, 80, 80, 1)


class MLXC(XCFunctional):
    """Neural XC functional at quantum-many-body-informed accuracy (Level 4+)."""

    name = "MLXC"
    needs_gradient = True
    level = 4

    def __init__(self, network: MLP | None = None, seed: int = 0) -> None:
        n_in = DEFAULT_LAYERS[0]
        self.network = network if network is not None else MLP(DEFAULT_LAYERS, seed=seed)
        if self.network.layer_sizes[0] != n_in or self.network.layer_sizes[-1] != 1:
            raise ValueError(
                f"{self.name} network must map {n_in} descriptors to a scalar F"
            )

    # ------------------------------------------------------------------
    def exc_density(self, rho_up, rho_dn, sigma_uu=None, sigma_ud=None, sigma_dd=None):
        """Eq. 3."""
        feats, pref, _ = network_inputs(rho_up, rho_dn, sigma_uu + 2.0 * sigma_ud + sigma_dd)
        e = pref * self.network.forward(feats)[:, 0]
        return np.where(np.real(rho_up + rho_dn) > RHO_FLOOR, e, 0.0)

    def _energy_and_derivatives(self, args, tape=None):
        """Back-propagation: one forward and one reverse pass for all inputs.

        ``evaluate`` hands over its live rows only, so nothing is masked
        here.  ``tape`` receives ``(f, p, df, dp)`` — the network's inputs
        and the descriptor partials on those rows, which the trainer's
        parameter pass re-uses after the row index ``evaluate`` recorded
        ahead of it.
        """
        rho_up, rho_dn, s_uu, s_ud, s_dd = args
        f, p, df, dp = network_inputs_with_partials(rho_up, rho_dn, s_uu + 2.0 * s_ud + s_dd)
        F, dF = self.network.input_jacobian(f)
        if tape is not None:
            tape.append((f, p, df, dp))
        # d e / d (rho_up, rho_dn, sigma_total); sigma_total counts sigma_ud twice
        de = dp * F[:, None] + p[:, None] * np.einsum("na,naj->nj", dF, df)
        d_up, d_dn, d_sigma = de.T
        return p * F, [d_up, d_dn, d_sigma, 2.0 * d_sigma, d_sigma]

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the trained network weights."""
        self.network.save(path)

    @classmethod
    def from_pretrained(cls, path: str) -> "MLXC":
        """Load an MLXC functional from saved network weights."""
        return cls(network=MLP.load(path))

    @classmethod
    def pretrained(cls) -> "MLXC":
        """Load the weights shipped with the package.

        These were produced by ``examples/mlxc_training.py --save`` (the
        full FCI -> invDFT -> training pipeline on the model-world
        H2/LiH/Li/N set); see EXPERIMENTS.md Fig 3 for their accuracy.
        """
        path = pathlib.Path(__file__).resolve().parent / "data/mlxc_pretrained.npz"
        if not path.exists():
            raise FileNotFoundError(
                "no shipped MLXC weights found; run "
                "`python examples/mlxc_training.py --save` to generate them"
            )
        return cls.from_pretrained(str(path))

    @classmethod
    def bootstrapped_from(cls, reference: XCFunctional, seed: int = 0,
                          epochs: int = 400, n_samples: int = 4000) -> "MLXC":
        """Pretrain F_DNN to mimic a reference functional's F on a sample grid.

        Used as the training warm start (and in tests): fits
        ``F_ref = e_ref / (rho^(4/3) phi)`` over a physical range of
        (rho, xi, s) by Adam on an MSE loss.
        """
        rng = np.random.default_rng(seed)
        rho = 10.0 ** rng.uniform(-3, 1, n_samples)
        xi = rng.uniform(-0.98, 0.98, n_samples)
        s = 10.0 ** rng.uniform(-2, 1, n_samples)
        rho_up = 0.5 * rho * (1 + xi)
        rho_dn = 0.5 * rho * (1 - xi)
        grad = s * 2.0 * (3 * np.pi**2) ** (-1 / 3) * rho ** (4 / 3)
        sigma_tot = grad**2
        # attribute the gradient to the channels proportionally
        if reference.needs_gradient:
            suu = sigma_tot * ((1 + xi) / 2) ** 2
            sdd = sigma_tot * ((1 - xi) / 2) ** 2
            sud = sigma_tot * (1 + xi) * (1 - xi) / 4
            e_ref = np.real(reference.exc_density(rho_up, rho_dn, suu, sud, sdd))
        else:
            e_ref = np.real(reference.exc_density(rho_up, rho_dn))
        F_target = (e_ref / (rho ** (4 / 3) * phi_spin_factor(xi)))[:, None]
        feats = feature_map(rho, xi, s)
        functional = cls(seed=seed)
        net = functional.network
        opt = Adam(lr=3e-3)
        theta = net.get_params()
        for _ in range(epochs):
            net.set_params(theta)
            _, grad = net.residual_and_param_grad(feats, F_target)
            theta = opt.step(theta, grad)
        net.set_params(theta)
        return functional
