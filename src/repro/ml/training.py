"""MLXC training: composite loss on E_xc and density-weighted v_xc (Sec 5.2).

The paper trains F_DNN against {rho_QMB, v_xc_exact} pairs from invDFT with
a composite mean-squared-error loss on the XC energy and the
density-weighted XC potential, with v_xc^ML obtained "inexpensively via
back-propagation".  This module keeps exactly that loss; the passes an
autodiff framework would generate are hand-written, in real arithmetic:

The potential loss needs the *mixed* second derivative
``d/d theta [ d e / d (inputs) ]`` (parameter gradient of an
input-derivative), including the weak-divergence term from the
s-dependence.  Two steps:

* the linearity of the divergence (its adjoint, ``Mesh3D.
  divergence_adjoint``) turns the loss gradient into a pointwise-weighted
  sum ``sum_I a_I . (d e / d x)_I`` over the network's pointwise inputs
  ``x = (rho_up, rho_dn, sigma)``;
* with ``e = p F``, that sum is ``sum_I (p' F + p F')_I``, primes being
  tangents along ``a``.

So a sample takes two passes over the network's rows, each in blocks of
:data:`repro.ml.nn.BLOCK_ROWS`.  Pass 1 is the functional's own
``evaluate`` (``F`` and ``dF/df``), which tapes the network's inputs and
the descriptor partials and gives the loss, the potential residual and the
adjoint weights.  Pass 2, :meth:`MLP.value_and_param_grad` with a
direction, recomputes each block's forward pass with a cache, pushes the
direction through it (:meth:`MLP.forward_tangent`) and takes the adjoints
of ``F`` (seeded with ``p'`` plus the energy term) and of ``F'`` (seeded
with ``p``) in one :meth:`MLP.backward` sweep — forward-over-reverse.  One
forward pass per sample and epoch is computed twice; in exchange no pass
holds a full-grid (n, width) array.

The complex-step-times-backprop form this replaced is the test oracle
(``tests/reference``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.fem.mesh import Mesh3D
from repro.constants import RHO_FLOOR
from repro.core.io import load_mlxc_state, save_mlxc_state
from repro.obs import trace_region
from repro.resilience import ResilienceError

from .nn import Adam, row_blocks

__all__ = ["TrainingSample", "MLXCTrainer", "assemble_sample"]


@dataclass(eq=False)  # array fields: identity, not element-wise, equality
class TrainingSample:
    """Per-system training data on its finite-element mesh."""

    name: str
    mesh: Mesh3D
    rho_spin: np.ndarray  #: (n, 2) target (QMB) spin density
    grad_up: np.ndarray  #: (n, 3)
    grad_dn: np.ndarray
    v_target: np.ndarray  #: (n, 2) exact XC potential from invDFT
    exc_target: float  #: exact XC energy
    live: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.live = self.rho_spin.sum(axis=1) > 10.0 * RHO_FLOOR

    @cached_property
    def sigmas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient contractions (sigma_uu, sigma_ud, sigma_dd)."""
        s_uu = np.einsum("ij,ij->i", self.grad_up, self.grad_up)
        s_ud = np.einsum("ij,ij->i", self.grad_up, self.grad_dn)
        s_dd = np.einsum("ij,ij->i", self.grad_dn, self.grad_dn)
        return s_uu, s_ud, s_dd

    @cached_property
    def weighted_rho2(self) -> np.ndarray:
        """``w rho_s^2`` (n, 2): the potential loss's pointwise weights."""
        return self.mesh.mass_diag[:, None] * self.rho_spin**2

    @cached_property
    def potential_norm(self) -> float:
        """``sum w (rho v_target)^2``: the potential loss's denominator."""
        w = self.mesh.mass_diag[:, None]
        return float(np.sum(w * (self.rho_spin * self.v_target) ** 2)) + 1e-30

    @cached_property
    def network_rows(self) -> int:
        """Rows the functional's network runs on: ``evaluate`` gathers
        ``rho_up + rho_dn > RHO_FLOOR`` of the clamped densities."""
        return int(np.count_nonzero(np.maximum(self.rho_spin, 0.0).sum(axis=1) > RHO_FLOOR))


def assemble_sample(
    name: str,
    mesh: Mesh3D,
    rho_spin: np.ndarray,
    v_xc_spin: np.ndarray,
    exc_target: float,
) -> TrainingSample:
    """Package invDFT output into a training sample (computes gradients)."""
    return TrainingSample(
        name=name,
        mesh=mesh,
        rho_spin=np.asarray(rho_spin, dtype=float),
        grad_up=mesh.gradient(rho_spin[:, 0]),
        grad_dn=mesh.gradient(rho_spin[:, 1]),
        v_target=np.asarray(v_xc_spin, dtype=float),
        exc_target=float(exc_target),
    )


class MLXCTrainer:
    """Adam training of a neural XC functional on invDFT data."""

    def __init__(
        self,
        samples: list[TrainingSample],
        functional=None,
        lambda_energy: float = 1.0,
        lambda_potential: float = 1.0,
    ) -> None:
        if not samples:
            raise ValueError("need at least one training sample")
        self.samples = samples
        if functional is None:
            from repro.xc.mlxc import MLXC  # lazy: avoids ml <-> xc cycle

            functional = MLXC()
        self.functional = functional
        self.lambda_energy = lambda_energy
        self.lambda_potential = lambda_potential

    # ------------------------------------------------------------------
    def _sample_terms(self, s: TrainingSample, tape: list | None = None):
        """Sample ``s``: energy residual and its norm, potential loss term and
        the masked potential residual (n, 2) it is made of."""
        out = self.functional.evaluate(
            s.rho_spin[:, 0], s.rho_spin[:, 1], *s.sigmas, tape=tape
        )
        v_ml = out.potential(s.mesh, s.grad_up, s.grad_dn)
        norm_e = max(abs(s.exc_target), 1e-3)
        resid_e = (float(s.mesh.integrate(out.exc)) - s.exc_target) / norm_e
        dv = (v_ml - s.v_target) * s.live[:, None]
        lv_s = float(np.sum(s.weighted_rho2 * dv**2)) / s.potential_norm
        return resid_e, norm_e, lv_s, dv

    def _totals(self, le: float, lv: float) -> dict:
        n = len(self.samples)
        total = (self.lambda_energy * le + self.lambda_potential * lv) / n
        return {"total": total, "energy": le / n, "potential": lv / n}

    def loss(self) -> dict:
        """Current composite loss and its components."""
        terms = [self._sample_terms(s) for s in self.samples]
        return self._totals(sum(t[0] ** 2 for t in terms), sum(t[2] for t in terms))

    def loss_and_grad(self) -> tuple[dict, np.ndarray]:
        """Composite loss and its exact parameter gradient (module docstring:
        pass 1 is the evaluation, pass 2 the blocked parameter pass)."""
        net = self.functional.network
        grad = np.zeros(net.n_params)
        le, lv = 0.0, 0.0
        n = len(self.samples)
        for s in self.samples:
            tape: list = []
            resid_e, norm_e, lv_s, dv = self._sample_terms(s, tape)
            # the network ran on the evaluation's live rows only: everything
            # pointwise below is gathered by the row index it recorded
            rows, (f, p, df, dp) = tape
            le += resid_e**2
            lv += lv_s
            # dL/dv_sI, then through the adjoint divergence: pointwise weights
            # on d e / d (rho_up, rho_dn, sigma); e sees only the total sigma,
            # so both spin channels share one adjoint field
            a = (self.lambda_potential / n * 2.0 / s.potential_norm) * s.weighted_rho2 * dv
            adj = s.mesh.divergence_adjoint(a[:, 0] + a[:, 1])
            ax = [
                a[:, 0], a[:, 1],
                -2.0 * np.einsum("ij,ij->i", s.grad_up + s.grad_dn, adj),
            ]
            live = s.live[rows]
            ax = np.where(live[:, None], np.stack(ax, axis=1)[rows], 0.0)
            p = np.where(live, p, 0.0)
            # tangents of e = p F along ax; theta-gradient of sum(p' F + p F')
            # and of the energy term's coeff * sum(w p F), in one reverse sweep
            p_dot = np.einsum("nj,nj->n", dp, ax)
            coeff = self.lambda_energy / n * 2.0 * resid_e / norm_e
            _, g = net.value_and_param_grad(
                f, (coeff * s.mesh.mass_diag[rows] * p + p_dot)[:, None],
                np.einsum("naj,nj->na", df, ax), p[:, None],
            )
            grad += g
        return self._totals(le, lv), grad

    # ------------------------------------------------------------------
    def train(
        self,
        epochs: int = 200,
        lr: float = 2e-3,
        verbose: bool = False,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        checkpoint_metadata: dict | None = None,
        resume_from: str | None = None,
    ) -> list[dict]:
        """Run Adam; returns the loss history.

        ``checkpoint_path`` snapshots (theta, Adam moments, loss history)
        every ``checkpoint_every`` epochs; ``resume_from`` continues an
        interrupted training run on the identical parameter trajectory.
        """
        net = self.functional.network
        opt = Adam(lr=lr)
        theta = net.get_params()
        history = []
        start_ep = 0
        if resume_from is not None:
            st = load_mlxc_state(resume_from, n_params=net.n_params)
            theta = st["theta"]
            opt.load_state_dict(st["opt_state"])
            history = st["history"]
            start_ep = st["epoch"] + 1
        # each epoch runs the network over these rows twice, in these blocks
        rows = [s.network_rows for s in self.samples]
        blocks = sum(len(row_blocks(r)) for r in rows)
        with trace_region(
            "MLXC-train", epochs=epochs, nsamples=len(self.samples)
        ):
            for ep in range(start_ep, epochs):
                with trace_region("MLXC-epoch", epoch=ep, rows=sum(rows), blocks=blocks):
                    net.set_params(theta)
                    losses, grad = self.loss_and_grad()
                    # resilience sentinel: a NaN loss corrupts theta through
                    # the optimizer; fail structured instead
                    if not np.isfinite(losses["total"]):
                        raise ResilienceError(
                            "mlxc", f"non-finite training loss at epoch {ep}"
                        )
                    history.append(losses)
                    if verbose and (ep % 20 == 0 or ep == epochs - 1):  # pragma: no cover
                        print(
                            f"epoch {ep:4d} total {losses['total']:.4e} "
                            f"E {losses['energy']:.3e} v {losses['potential']:.3e}"
                        )
                    theta = opt.step(theta, grad)
                    if checkpoint_path is not None and (
                        ep % max(checkpoint_every, 1) == 0 or ep == epochs - 1
                    ):
                        save_mlxc_state(
                            checkpoint_path,
                            epoch=ep,
                            theta=theta,
                            opt_state=opt.state_dict(),
                            history=history,
                            metadata=checkpoint_metadata or {},
                        )
        net.set_params(theta)
        return history
