"""ML density surrogate: learn converged densities from small members.

The second reuse layer, in the spirit of "Predicting electronic
structures at any length scale with machine learning" (PAPERS.md): the
converged densities of a family's *small* members are training data for
a model that predicts the initial density of its *large* members — node
by node, from local structural features, so a network trained on an
N-atom member applies unchanged to a 2N-atom one.

The model is deliberately residual: it learns the **log-ratio** between
the converged density and the superposition-of-atomic-densities guess,

    rho_pred = rho_guess * exp(net(features)),

so an untrained (zero-output) or extrapolating network degrades toward
the guess instead of toward garbage, and positivity is structural.
Predictions are floored and renormalized to the member's electron
count; a prediction whose features fall outside the training
distribution (feature-box coverage test) is refused, and the campaign
falls back to the superposition cold start.

Built on the from-scratch :mod:`repro.ml` substrate (MLP + Adam); fully
seeded, so two campaigns train bit-identical surrogates.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.core.density import atomic_guess_density
from repro.fem.mesh import Mesh3D
from repro.ml.nn import MLP, Adam
from repro.obs import trace_region

__all__ = ["DensitySurrogate", "node_features"]

#: densities below this are treated as vacuum in the log-ratio target
_RHO_FLOOR = 1e-10

#: number of per-node structural features
N_FEATURES = 3


def node_features(mesh: Mesh3D, config: AtomicConfiguration) -> np.ndarray:
    """Local structural features at every mesh node, shape (nnodes, 3).

    Each node sees (i) the superposition guess density to the 1/3 power
    (a local length scale, the Thomas-Fermi variable), (ii) the decay
    ``exp(-d_min)`` to its nearest atom, and (iii) a charge-weighted
    coordination sum ``sum_a Z_a exp(-d_a / 2)``.  All three are
    intensive and translation-invariant: a node between two chain atoms
    produces the same features whether the chain has 2 links or 20 —
    that locality is what makes small-to-large transfer possible.
    """
    guess = atomic_guess_density(mesh, config, 0.0).sum(axis=1)
    nodes = np.asarray(mesh.node_coords, dtype=float)
    pos = np.atleast_2d(config.positions)
    zs = np.array([el.Z for el in config.elements], dtype=float)
    diff = nodes[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))  # (nnodes, natoms)
    f0 = np.cbrt(np.maximum(guess, 0.0))
    f1 = np.exp(-dist.min(axis=1))
    f2 = (zs[None, :] * np.exp(-0.5 * dist)).sum(axis=1)
    return np.column_stack([f0, f1, f2])


class DensitySurrogate:
    """Small MLP mapping node features to converged/guess log-ratios."""

    def __init__(
        self,
        hidden: tuple[int, ...] = (16, 16),
        seed: int = 0,
        lr: float = 1e-2,
        epochs: int = 300,
        clip: float = 4.0,
        ood_margin: float = 0.10,
        ood_max_fraction: float = 0.05,
        max_samples_per_member: int = 2048,
    ) -> None:
        self.net = MLP((N_FEATURES, *hidden, 1), seed=seed)
        self.opt = Adam(lr=lr)
        self.epochs = int(epochs)
        self.clip = float(clip)
        #: feature-box slack, as a fraction of each feature's training range
        self.ood_margin = float(ood_margin)
        #: fraction of out-of-box nodes above which a prediction is refused
        self.ood_max_fraction = float(ood_max_fraction)
        self.max_samples_per_member = int(max_samples_per_member)
        self.seed = int(seed)
        self._X: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._box_lo: np.ndarray | None = None
        self._box_hi: np.ndarray | None = None
        self.trained = False
        self.final_loss: float | None = None

    @property
    def n_samples(self) -> int:
        return sum(x.shape[0] for x in self._X)

    @property
    def n_members(self) -> int:
        return len(self._X)

    # ------------------------------------------------------------------
    def add_sample(
        self,
        mesh: Mesh3D,
        config: AtomicConfiguration,
        rho_spin: np.ndarray,
    ) -> int:
        """Ingest one converged member as {features -> log-ratio} pairs.

        Nodes are subsampled deterministically (seeded, without
        replacement) to ``max_samples_per_member``, so training cost is
        bounded by the family size, not the mesh size.
        """
        X = node_features(mesh, config)
        guess = atomic_guess_density(mesh, config, 0.0).sum(axis=1)
        rho = np.asarray(rho_spin, dtype=float).sum(axis=1)
        y = np.log(
            (np.maximum(rho, 0.0) + _RHO_FLOOR)
            / (np.maximum(guess, 0.0) + _RHO_FLOOR)
        )[:, None]
        n = X.shape[0]
        if n > self.max_samples_per_member:
            rng = np.random.default_rng(self.seed + 7919 * len(self._X))
            idx = np.sort(
                rng.choice(n, size=self.max_samples_per_member, replace=False)
            )
            X, y = X[idx], y[idx]
        self._X.append(X)
        self._y.append(y)
        lo, hi = X.min(axis=0), X.max(axis=0)
        if self._box_lo is None:
            self._box_lo, self._box_hi = lo, hi
        else:
            self._box_lo = np.minimum(self._box_lo, lo)
            self._box_hi = np.maximum(self._box_hi, hi)
        self.trained = False  # new data invalidates the fitted weights
        return int(X.shape[0])

    def fit(self) -> float:
        """Full-batch Adam on the accumulated pairs; returns final MSE."""
        if not self._X:
            raise ValueError("cannot fit a surrogate with no training samples")
        X = np.concatenate(self._X, axis=0)
        y = np.concatenate(self._y, axis=0)
        n = X.shape[0]
        theta = self.net.get_params()
        loss = np.inf
        with trace_region("screen.surrogate.fit", samples=n):
            for _ in range(self.epochs):
                resid, grad = self.net.residual_and_param_grad(X, y)
                loss = float(np.mean(resid**2))
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        "surrogate training produced a non-finite loss"
                    )
                theta = self.opt.step(theta, grad)
                self.net.set_params(theta)
        self.trained = True
        self.final_loss = loss
        return loss

    # ------------------------------------------------------------------
    def _ood_fraction(self, X: np.ndarray) -> float:
        assert self._box_lo is not None and self._box_hi is not None
        span = np.maximum(self._box_hi - self._box_lo, 1e-12)
        lo = self._box_lo - self.ood_margin * span
        hi = self._box_hi + self.ood_margin * span
        outside = np.any((X < lo) | (X > hi), axis=1)
        return float(outside.mean())

    def predict(
        self, mesh: Mesh3D, config: AtomicConfiguration
    ) -> tuple[np.ndarray | None, dict[str, Any]]:
        """Predicted seed density for a member, or None when refused.

        Returns ``(rho_spin, info)``: the prediction scales each spin
        channel of the superposition guess by the learned ratio, then
        renormalizes to the electron count.  Refusals (untrained model,
        feature-box OOD, degenerate norm) report their reason and the
        campaign falls back to the plain guess.
        """
        if not self.trained:
            return None, {"source": None, "reason": "untrained"}
        X = node_features(mesh, config)
        ood = self._ood_fraction(X)
        if ood > self.ood_max_fraction:
            return None, {
                "source": None, "reason": "ood", "ood_fraction": ood,
            }
        log_ratio = self.net.forward(X)[:, 0]
        ratio = np.exp(np.clip(log_ratio, -self.clip, self.clip))
        guess_spin = atomic_guess_density(mesh, config, 0.0)
        rho = np.maximum(guess_spin * ratio[:, None], 0.0)
        total = float(mesh.integrate(rho.sum(axis=1)))
        if not np.isfinite(total) or total <= 0.0:
            return None, {"source": None, "reason": "degenerate-norm"}
        rho *= float(config.n_electrons) / total
        return rho, {
            "source": "surrogate", "ood_fraction": ood,
            "loss": self.final_loss,
        }
