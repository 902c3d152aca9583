"""Level-1 functional: local density approximation (Slater X + PW92 C).

Spin-polarized throughout.  The potential is in closed form:
:meth:`LDA._energy_and_derivatives` returns ``exc`` and both ``d exc / d
rho_s`` from one real-arithmetic pass that shares ``rs``, the three Pade
forms and ``f(zeta)`` between energy and potential.  Only the PW92 pieces
(:func:`_pw92_G`, :func:`pw92_ec`) and ``exc_density`` stay dtype-agnostic:
PBE / PBE0 differentiate through them by complex step, and the base class's
complex step of ``LDA.exc_density`` is the closed form's test oracle.
"""

from __future__ import annotations

import numpy as np

from .base import RHO_FLOOR, XCFunctional

__all__ = ["LDA", "lda_exchange_energy_density", "pw92_ec"]

_CX = -(3.0 / 4.0) * (3.0 / np.pi) ** (1.0 / 3.0)

# PW92 parameters: (A, alpha1, beta1, beta2, beta3, beta4)
_PW92_EC0 = (0.031091, 0.21370, 7.5957, 3.5876, 1.6382, 0.49294)
_PW92_EC1 = (0.015545, 0.20548, 14.1189, 6.1977, 3.3662, 0.62517)
_PW92_AC = (0.016887, 0.11125, 10.357, 3.6231, 0.88026, 0.49671)
_FPP0 = 4.0 / (9.0 * (2.0 ** (1.0 / 3.0) - 1.0))  # f''(0)
_FZ_NORM = 2.0 ** (4.0 / 3.0) - 2.0


def _pw92_G(rs, srs, p):
    """The PW92 Pade form G(rs; A, a1, b1..b4) and dG/drs (``srs = sqrt(rs)``)."""
    A, a1, b1, b2, b3, b4 = p
    q1 = 2.0 * A * (b1 * srs + b2 * rs + b3 * rs * srs + b4 * rs * rs)
    dq1 = A * (b1 / srs + 2.0 * b2 + 3.0 * b3 * srs + 4.0 * b4 * rs)
    pref = -2.0 * A * (1.0 + a1 * rs)
    lg = np.log(1.0 + 1.0 / q1)
    return pref * lg, -2.0 * A * a1 * lg - pref * dq1 / (q1 * (q1 + 1.0))


def _pw92_forms(rs):
    """``(G, dG/drs)`` of the paramagnetic, the ferromagnetic and (minus) the
    spin-stiffness form, on one shared ``sqrt(rs)``."""
    srs = np.sqrt(rs)
    return [_pw92_G(rs, srs, p) for p in (_PW92_EC0, _PW92_EC1, _PW92_AC)]


def _f_zeta(zeta):
    """The spin-interpolation function f(zeta); f(0) = 0, f(+-1) = 1."""
    return ((1.0 + zeta) ** (4.0 / 3.0) + (1.0 - zeta) ** (4.0 / 3.0) - 2.0) / _FZ_NORM


def _spin_interpolate(g0, g1, mac, fz, z4):
    """PW92's interpolation between the three forms; linear in them, so it
    interpolates their rs-derivatives too."""
    return g0 - mac * fz / _FPP0 * (1.0 - z4) + (g1 - g0) * fz * z4


def pw92_ec(rs, zeta):
    """PW92 correlation energy per electron, epsilon_c(rs, zeta)."""
    (g0, _), (g1, _), (mac, _) = _pw92_forms(rs)
    return _spin_interpolate(g0, g1, mac, _f_zeta(zeta), zeta**4)


def lda_exchange_energy_density(rho_up, rho_dn):
    """Slater exchange energy density via the spin-scaling relation."""
    # E_x[up, dn] = (E_x^unpol[2 up] + E_x^unpol[2 dn]) / 2
    e_up = 0.5 * _CX * (2.0 * rho_up) ** (4.0 / 3.0)
    e_dn = 0.5 * _CX * (2.0 * rho_dn) ** (4.0 / 3.0)
    return e_up + e_dn


def _gas_variables(rho_up, rho_dn):
    """``(live, rho, zeta, rs)`` with the total density floored at RHO_FLOOR."""
    rho = rho_up + rho_dn
    live = np.real(rho) > RHO_FLOOR
    rho_s = np.where(live, rho, RHO_FLOOR)
    zeta = (rho_up - rho_dn) / rho_s
    rs = (3.0 / (4.0 * np.pi * rho_s)) ** (1.0 / 3.0)
    return live, rho_s, zeta, rs


class LDA(XCFunctional):
    """Slater exchange + Perdew-Wang 1992 correlation."""

    name = "LDA-PW92"
    needs_gradient = False
    level = 1

    def exc_density(self, rho_up, rho_dn, *_unused):
        live, rho_s, zeta, rs = _gas_variables(rho_up, rho_dn)
        ex = lda_exchange_energy_density(rho_up, rho_dn)
        return np.where(live, ex + rho_s * pw92_ec(rs, zeta), 0.0)

    def _energy_and_derivatives(self, args, tape=None):
        """``exc`` (bitwise ``exc_density``) and ``d exc / d rho_s`` in closed
        form: ``v_x^s = (4/3) C_x (2 rho_s)^(1/3)`` and ``v_c^s = ec - (rs/3)
        d ec/d rs - zeta d ec/d zeta +- d ec/d zeta``.  Exact at a zero spin
        density, where a complex step through ``(2 rho_s)^(4/3)`` is not."""
        rho_up, rho_dn = args
        if np.iscomplexobj(rho_up) or np.iscomplexobj(rho_dn):
            raise TypeError("the closed-form LDA potential takes real densities")
        live, rho_s, zeta, rs = _gas_variables(rho_up, rho_dn)
        (g0, dg0), (g1, dg1), (mac, dmac) = _pw92_forms(rs)
        fz, z3, z4 = _f_zeta(zeta), zeta**3, zeta**4
        ec = _spin_interpolate(g0, g1, mac, fz, z4)
        exc = np.where(live, lda_exchange_energy_density(rho_up, rho_dn) + rho_s * ec, 0.0)

        dec_drs = _spin_interpolate(dg0, dg1, dmac, fz, z4)
        dfz = (4.0 / 3.0) * (np.cbrt(1.0 + zeta) - np.cbrt(1.0 - zeta)) / _FZ_NORM
        dec_dz = (g1 - g0) * (dfz * z4 + 4.0 * fz * z3) - mac / _FPP0 * (
            dfz * (1.0 - z4) - 4.0 * fz * z3
        )
        both = ec - (rs / 3.0) * dec_drs - zeta * dec_dz
        vx = (4.0 / 3.0) * _CX
        return exc, [
            np.where(live, vx * np.cbrt(2.0 * rho_up) + both + dec_dz, 0.0),
            np.where(live, vx * np.cbrt(2.0 * rho_dn) + both - dec_dz, 0.0),
        ]
