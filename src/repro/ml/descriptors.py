"""MLXC input descriptors (paper Eq. 3): rho, xi, s.

* total density ``rho = rho_up + rho_dn``
* relative spin polarization ``xi = (rho_up - rho_dn) / rho``
* reduced density gradient
  ``s = (3 pi^2)^(1/3) |grad rho| / (2 rho^(4/3))``

plus the spin-scaling prefactor
``phi = ((1+xi)^(4/3) + (1-xi)^(4/3)) / 2``.

The value functions are dtype-agnostic (the complex-step oracle in
``tests/reference`` perturbs them) and floor the density to avoid vacuum
singularities; for feeding the DNN, bounded transforms ``rho^(1/3)`` and
``s/(1+s)`` are used (a monotone reparametrization of the same physical
inputs — the functional dependence of Eq. 3 is unchanged).

:func:`network_inputs_with_partials` is the descriptor layer of the
back-propagated potential: the same values together with their partial
derivatives with respect to the pointwise inputs.
"""

from __future__ import annotations

import numpy as np

from repro.constants import RHO_FLOOR

__all__ = [
    "descriptors_from_spin_density",
    "phi_spin_factor",
    "reduced_gradient",
    "feature_map",
    "network_inputs",
    "network_inputs_with_partials",
]

_S_PREF = (3.0 * np.pi**2) ** (1.0 / 3.0)


def _floored(rho):
    return np.where(np.real(rho) > RHO_FLOOR, rho, RHO_FLOOR)


def reduced_gradient(rho, sigma_total):
    """Dimensionless s from rho and sigma = |grad rho|^2."""
    grad = np.sqrt(np.where(np.real(sigma_total) > 0, sigma_total, 0.0) + 1e-300)
    return _S_PREF * grad / (2.0 * _floored(rho) ** (4.0 / 3.0))


def phi_spin_factor(xi):
    """phi(xi) = ((1+xi)^(4/3) + (1-xi)^(4/3)) / 2."""
    return 0.5 * ((1.0 + xi) ** (4.0 / 3.0) + (1.0 - xi) ** (4.0 / 3.0))


def descriptors_from_spin_density(rho_up, rho_dn, sigma_uu, sigma_ud, sigma_dd):
    """Return (rho, xi, s) fields from spin densities and contractions."""
    rho = rho_up + rho_dn
    rho_s = _floored(rho)
    xi = (rho_up - rho_dn) / rho_s
    s = reduced_gradient(rho_s, sigma_uu + 2.0 * sigma_ud + sigma_dd)
    return rho, xi, s


def feature_map(rho, xi, s):
    """Bounded DNN features ``[rho^(1/3), xi, s/(1+s)]``, stacked (n, 3)."""
    cols = [_floored(rho) ** (1.0 / 3.0), xi, s / (1.0 + s)]
    return np.stack([np.asarray(c) for c in cols], axis=-1)


def network_inputs(rho_up, rho_dn, sigma_total):
    """Features (n, 3) and the ``rho^(4/3) phi(xi)`` prefactor of Eq. 3.

    Also returns the descriptor fields ``(rho_s, xi, s)``.
    """
    rho_s = _floored(rho_up + rho_dn)
    xi = (rho_up - rho_dn) / rho_s
    s = reduced_gradient(rho_s, sigma_total)
    pref = rho_s ** (4.0 / 3.0) * phi_spin_factor(xi)
    return feature_map(rho_s, xi, s), pref, (rho_s, xi, s)


def network_inputs_with_partials(rho_up, rho_dn, sigma_total):
    """:func:`network_inputs` plus the descriptor chain rule (real inputs).

    Returns ``(f, p, df, dp)``: features ``f`` (n, 3) and prefactor ``p``
    (n,) exactly as :func:`network_inputs` computes them, and their partials
    ``df[n, a, j] = d f_a / d x_j``, ``dp[n, j] = d p / d x_j`` with respect
    to the pointwise inputs ``x = (rho_up, rho_dn, sigma_total)``.
    The partials are those of the floored, branched value code where
    ``rho > RHO_FLOOR`` (``sigma <= 0`` has zero slope, as the ``where``
    in :func:`reduced_gradient` gives it); at and below the floor the energy
    density is identically zero and callers mask, as ``exc_density`` does.
    """
    f, p, (rho_s, xi, s) = network_inputs(rho_up, rho_dn, sigma_total)
    n, k = f.shape
    df = np.zeros((n, k, k))
    dp = np.zeros((n, k))
    # rho^(1/3): the same slope in both spin channels
    df[:, 0, 0] = df[:, 0, 1] = f[:, 0] / (3.0 * rho_s)
    dxi = np.stack([(1.0 - xi) / rho_s, -(1.0 + xi) / rho_s], axis=-1)
    df[:, 1, :2] = dxi
    # s / (1 + s), with s ~ sqrt(sigma) / rho^(4/3)
    df3_ds = 1.0 / (1.0 + s) ** 2
    df[:, 2, 0] = df[:, 2, 1] = df3_ds * (-4.0 / 3.0) * s / rho_s
    sig_pos = np.where(sigma_total > 0, sigma_total, 0.0) + 1e-300
    df[:, 2, 2] = np.where(sigma_total > 0, df3_ds * s / (2.0 * sig_pos), 0.0)
    dphi = (2.0 / 3.0) * ((1.0 + xi) ** (1.0 / 3.0) - (1.0 - xi) ** (1.0 / 3.0))
    dp[:, :2] = (
        (4.0 / 3.0) * (p / rho_s)[:, None]
        + (rho_s ** (4.0 / 3.0) * dphi)[:, None] * dxi
    )
    return f, p, df, dp
