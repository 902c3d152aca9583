"""Exchange-correlation functional interface (Levels 1-3 + MLXC).

A functional implements ``exc_density`` — the XC energy per unit volume as a
function of the spin densities, (for GGAs and MLXC) the gradient
contractions ``sigma_ab = grad(rho_a) . grad(rho_b)`` (libxc convention).

:meth:`XCFunctional.evaluate` is the one entry point for the derivatives
``vrho = d e / d rho_s`` and ``vsigma = d e / d sigma_ab``; only its
derivative step differs between functionals:

* PBE and PBE0 use *complex-step differentiation*: for an analytic
  implementation ``f'(x) = Im f(x + i h) / h`` is exact to machine precision
  with ``h ~ 1e-30`` — no subtractive cancellation, no hand-derived formulas
  to get wrong — so they (and the PW92 pieces they share with LDA) are
  written dtype-agnostically.  It is the default step below;
* LDA (:mod:`repro.xc.lda`) overrides it with the closed-form Slater + PW92
  potential — one real pass instead of one real and two complex ones, and
  exact where a spin density is exactly zero, which the complex step of
  ``(2 rho_s)^(4/3)`` is not — and keeps the default as its test oracle;
* the neural functionals (:mod:`repro.xc.mlxc`) override that step with
  back-propagation — one forward and one reverse pass through the network —
  and keep the complex step as their test oracle (``tests/reference``).

The derivative step runs only where the density lives: ``evaluate`` gathers
the rows with ``rho_up + rho_dn > RHO_FLOOR`` *before* it and scatters
``exc`` and the derivatives into zeros after (on a Dirichlet mesh the
boundary nodes hold rho = 0).  Where every row is live it passes the
caller's arrays through untouched — no copy, no second path.

The nodal XC potential entering the Kohn-Sham Hamiltonian is

.. math::

    v_{xc}^{s} = \\partial e/\\partial\\rho_s
        - \\nabla\\cdot\\big(2 v^{\\sigma}_{ss}\\nabla\\rho_s
        + v^{\\sigma}_{s\\bar s}\\nabla\\rho_{\\bar s}\\big),

with the divergence evaluated by the mesh's recovery operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import RHO_FLOOR
from repro.obs import trace_region

_CSTEP = 1e-30

__all__ = ["XCFunctional", "XCOutput", "RHO_FLOOR"]


def _scatter(values: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``values`` at ``rows`` of an otherwise zero length-``n`` array."""
    out = np.zeros(n, dtype=values.dtype)
    out[rows] = values
    return out


@dataclass
class XCOutput:
    """Pointwise functional evaluation on a set of grid points."""

    exc: np.ndarray  #: (n,) XC energy density (energy / volume)
    vrho: np.ndarray  #: (n, 2) d exc / d rho_s
    vsigma: np.ndarray | None  #: (n, 3) d exc / d sigma_[uu, ud, dd], or None

    def potential(self, mesh, g_up: np.ndarray, g_dn: np.ndarray) -> np.ndarray:
        """Nodal v_xc (n, 2) from the pointwise derivatives and the density
        gradients they were evaluated with (the module docstring's formula)."""
        vs = self.vsigma
        vec_up = 2.0 * vs[:, 0:1] * g_up + vs[:, 1:2] * g_dn
        vec_dn = 2.0 * vs[:, 2:3] * g_dn + vs[:, 1:2] * g_up
        v_up = self.vrho[:, 0] - mesh.divergence(vec_up)
        v_dn = self.vrho[:, 1] - mesh.divergence(vec_dn)
        return np.stack([v_up, v_dn], axis=1)


class XCFunctional:
    """Base class for exchange-correlation functionals."""

    name = "base"
    needs_gradient = False
    #: accuracy level in the paper's Fig. 1 taxonomy (1=LDA ... 4=QMB-like)
    level = 0

    # -- to be implemented by subclasses ---------------------------------
    def exc_density(
        self,
        rho_up: np.ndarray,
        rho_dn: np.ndarray,
        sigma_uu: np.ndarray | None = None,
        sigma_ud: np.ndarray | None = None,
        sigma_dd: np.ndarray | None = None,
    ) -> np.ndarray:
        """XC energy per unit volume (dtype-agnostic: supports complex)."""
        raise NotImplementedError

    def _energy_and_derivatives(
        self, args: list[np.ndarray], tape: list | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``exc`` and ``d exc / d args[j]`` at the pointwise inputs ``args``.

        The derivative step of :meth:`evaluate`: by complex step here, one
        ``exc_density`` call per input.  ``tape`` is for overrides that can
        record their pass (the neural functionals); nothing is taped here.
        """
        exc = np.real(self.exc_density(*args))
        derivs = []
        for j in range(len(args)):
            pert = [a.astype(complex) if i == j else a for i, a in enumerate(args)]
            pert[j] = pert[j] + 1j * _CSTEP
            derivs.append(np.imag(self.exc_density(*pert)) / _CSTEP)
        return exc, derivs

    # -- generic machinery -------------------------------------------------
    def evaluate(
        self,
        rho_up: np.ndarray,
        rho_dn: np.ndarray,
        sigma_uu: np.ndarray | None = None,
        sigma_ud: np.ndarray | None = None,
        sigma_dd: np.ndarray | None = None,
        tape: list | None = None,
    ) -> XCOutput:
        """Evaluate energy density and its derivatives at grid points.

        Missing ``sigma_ud`` / ``sigma_dd`` count as zero.  At
        and below ``RHO_FLOOR`` everything is exactly zero; the derivative
        step sees the live rows only (module docstring).  A list passed as
        ``tape`` receives the row index the step ran on (``slice(None)``
        when every row is live), then whatever the functional's derivative
        step records for a later parameter gradient (see
        :meth:`_energy_and_derivatives`).
        """
        rho_up = np.maximum(np.asarray(rho_up, dtype=float), 0.0)
        rho_dn = np.maximum(np.asarray(rho_dn, dtype=float), 0.0)
        args = [rho_up, rho_dn]
        if self.needs_gradient:
            if sigma_uu is None:
                raise ValueError(f"{self.name} requires gradient contractions")
            if sigma_ud is None:
                sigma_ud = np.zeros_like(sigma_uu)
            if sigma_dd is None:
                sigma_dd = np.zeros_like(sigma_uu)
            args += [np.asarray(sigma_uu, float), np.asarray(sigma_ud, float),
                     np.asarray(sigma_dd, float)]
        rows = np.flatnonzero((rho_up + rho_dn) > RHO_FLOOR)
        n = rho_up.size
        everywhere = rows.size == n
        with trace_region("XC", points=n, live=rows.size):
            if tape is not None:
                tape.append(slice(None) if everywhere else rows)
            if everywhere:  # nothing to gather: the caller's arrays, no copy
                exc, derivs = self._energy_and_derivatives(args, tape)
            else:
                exc, derivs = self._energy_and_derivatives([a[rows] for a in args], tape)
                exc, *derivs = [_scatter(v, rows, n) for v in (exc, *derivs)]
        vrho = np.stack(derivs[:2], axis=-1)
        vsigma = np.stack(derivs[2:5], axis=-1) if self.needs_gradient else None
        return XCOutput(exc, vrho, vsigma)

    def potential_and_energy(
        self, mesh, rho_spin: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Nodal XC potential (nnodes, 2) and total XC energy on a mesh.

        ``rho_spin`` is the (nnodes, 2) spin density.  GGA-type functionals
        include the weak-divergence term via the mesh recovery operators.
        """
        rho_up, rho_dn = rho_spin[:, 0], rho_spin[:, 1]
        if not self.needs_gradient:
            out = self.evaluate(rho_up, rho_dn)
            exc_total = float(mesh.integrate(out.exc))
            return out.vrho, exc_total

        g_up = mesh.gradient(rho_up)
        g_dn = mesh.gradient(rho_dn)
        s_uu = np.einsum("ij,ij->i", g_up, g_up)
        s_ud = np.einsum("ij,ij->i", g_up, g_dn)
        s_dd = np.einsum("ij,ij->i", g_dn, g_dn)
        out = self.evaluate(rho_up, rho_dn, s_uu, s_ud, s_dd)
        exc_total = float(mesh.integrate(out.exc))
        return out.potential(mesh, g_up, g_dn), exc_total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<XCFunctional {self.name} (level {self.level})>"
