"""MLXC-L: a more expressive MLXC with a density-Laplacian descriptor.

The paper's Implications section calls for "more expressive and
sophisticated forms for MLXC" as the route from 7 toward 1 mHa/atom.  This
module implements one such form: Eq. 3 extended with the reduced Laplacian

.. math::

    q(r) = \\frac{\\nabla^2\\rho}{4\\,(3\\pi^2)^{2/3}\\,\\rho^{5/3}},

a standard fourth semilocal descriptor (the leading new ingredient of
Laplacian-level meta-GGAs).  The functional stays a pure density functional,
so deployment reuses the SCF unchanged; the XC potential gains the
second-order Euler-Lagrange term

.. math::

    v_{xc} \\mathrel{+}= \\nabla^2\\big(\\partial e/\\partial(\\nabla^2\\rho)\\big),

which :meth:`repro.xc.base.XCOutput.potential` evaluates with the mesh's
recovery operators (Laplacian = divergence of the recovered gradient).

It is :class:`repro.xc.mlxc.MLXC` with one more entry in its descriptor
list: evaluation, back-propagated derivatives (``vlapl`` included), warm
start and persistence are inherited, and
:class:`repro.ml.training.MLXCLaplacianTrainer` trains it with the same
composite loss (the Laplacian term's adjoint is ``gradient_adjoint .
divergence_adjoint`` on the mesh).
"""

from __future__ import annotations

from .mlxc import DEFAULT_LAYERS, MLXC

__all__ = ["MLXCLaplacian", "LAPLACIAN_LAYERS"]

#: 4 descriptors -> 5 hidden layers x 80 neurons -> F
LAPLACIAN_LAYERS = (4,) + DEFAULT_LAYERS[1:]


class MLXCLaplacian(MLXC):
    """Laplacian-level neural XC functional (deployment-ready)."""

    name = "MLXC-L"
    descriptors = MLXC.descriptors + ("q",)

    def exc_density_lap(
        self, rho_up, rho_dn, sigma_uu, sigma_ud, sigma_dd, lap_up, lap_dn
    ):
        """Energy density with explicit spin-Laplacian inputs (dtype-agnostic);
        ``exc_density`` without them is the zero-Laplacian slice."""
        return self.exc_density(
            rho_up, rho_dn, sigma_uu, sigma_ud, sigma_dd, lap_up, lap_dn
        )
