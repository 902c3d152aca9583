"""SCF density mixing: Anderson (Pulay/DIIS) acceleration.

Anderson mixing minimizes the norm of a linear combination of the stored
residuals ``F_i = rho_out_i - rho_in_i`` and mixes along the optimized
direction — the standard workhorse for metallic SCF convergence used by
DFT-FE, and the one mixer the SCF runs.  Its first step, with one residual
in the window, is the damped update ``rho_in + alpha * F``.

The SCF's step depends on the cell: :data:`ALPHA_DIRICHLET` on a molecule
or any cell with a Dirichlet axis, :data:`ALPHA_PERIODIC` on a fully
periodic cell, whose residual is Kerker-preconditioned
(:mod:`repro.core.kerker`).  Without Kerker the larger step lets the
long-wavelength charge sloshing of a metal grow: Mg32 needs 17 iterations
instead of 12.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["ALPHA_DIRICHLET", "ALPHA_PERIODIC", "AndersonMixer"]

#: Anderson step on a cell with a Dirichlet axis (molecules, chains, slabs)
ALPHA_DIRICHLET = 0.3
#: Anderson step on a fully periodic, Kerker-preconditioned cell
ALPHA_PERIODIC = 0.6


class AndersonMixer:
    """Anderson (Pulay) mixing with a finite history window.

    The mixed density is

        rho* = sum_i c_i rho_in_i + alpha * sum_i c_i F_i,

    with coefficients minimizing ``|sum_i c_i F_i|`` subject to
    ``sum c_i = 1`` (solved via the normal equations with Tikhonov
    regularization for robustness on near-degenerate histories).
    """

    def __init__(
        self, alpha: float = ALPHA_DIRICHLET, history: int = 5, reg: float = 1e-12
    ) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self.alpha = alpha
        self.history = history
        self.reg = reg
        self._rho: deque[np.ndarray] = deque(maxlen=history)
        self._res: deque[np.ndarray] = deque(maxlen=history)

    def reset(self) -> None:
        self._rho.clear()
        self._res.clear()

    def get_history(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Copies of the (rho_in, residual) history, oldest first."""
        return (
            [r.copy() for r in self._rho],
            [r.copy() for r in self._res],
        )

    def set_history(self, rho: list[np.ndarray], res: list[np.ndarray]) -> None:
        """Replace the history window (checkpoint resume).

        Entries beyond ``history`` are dropped from the old end, matching
        what the deque would have retained.
        """
        if len(rho) != len(res):
            raise ValueError("rho and residual histories must have equal length")
        self._rho.clear()
        self._res.clear()
        for r in rho:
            self._rho.append(np.asarray(r).copy())
        for r in res:
            self._res.append(np.asarray(r).copy())

    def mix(self, rho_in: np.ndarray, rho_out: np.ndarray) -> np.ndarray:
        residual = rho_out - rho_in
        self._rho.append(rho_in.copy())
        self._res.append(residual.copy())
        m = len(self._res)
        if m == 1:
            return rho_in + self.alpha * residual
        R = np.stack([r.ravel() for r in self._res], axis=0)  # (m, n)
        G = R @ R.T
        scale = np.trace(G) / m
        G += self.reg * max(scale, 1e-300) * np.eye(m)
        ones = np.ones(m)
        try:
            x = np.linalg.solve(G, ones)
        except np.linalg.LinAlgError:
            x = ones / m
        c = x / x.sum()
        rho_bar = np.zeros_like(rho_in)
        res_bar = np.zeros_like(residual)
        for ci, ri, fi in zip(c, self._rho, self._res):
            rho_bar += ci * ri
            res_bar += ci * fi
        return rho_bar + self.alpha * res_bar
