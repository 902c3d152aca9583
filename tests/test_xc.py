"""XC functionals: reference values, derivative consistency, limits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xc import lda as lda_module
from repro.xc.base import RHO_FLOOR, XCFunctional
from repro.xc.gga import PBE
from repro.xc.lda import LDA, pw92_ec
from repro.xc.mlxc import MLXC
from tests.reference import reference_evaluate_then_mask


def _fd_vrho(func, rho_up, rho_dn, sigmas=None, h=1e-6):
    """Central finite difference of exc_density w.r.t. rho_up and rho_dn."""
    args = lambda u, d: (u, d) if sigmas is None else (u, d, *sigmas)
    d_up = (
        func.exc_density(*args(rho_up + h, rho_dn))
        - func.exc_density(*args(rho_up - h, rho_dn))
    ) / (2 * h)
    d_dn = (
        func.exc_density(*args(rho_up, rho_dn + h))
        - func.exc_density(*args(rho_up, rho_dn - h))
    ) / (2 * h)
    return d_up, d_dn


def test_lda_exchange_uniform_gas_value():
    """epsilon_x = -(3/4)(3 rho / pi)^(1/3) for the unpolarized gas."""
    rho = np.array([0.5])
    f = LDA()
    e = f.exc_density(rho / 2, rho / 2)
    # exchange part only: subtract correlation
    rs = (3.0 / (4 * np.pi * rho)) ** (1 / 3)
    ec = rho * pw92_ec(rs, 0.0)
    ex = e - ec
    expected = -(3.0 / 4.0) * (3.0 / np.pi) ** (1 / 3) * rho ** (4 / 3)
    assert np.allclose(ex, expected, rtol=1e-12)


def test_pw92_reference_values():
    """PW92 epsilon_c at rs=2, zeta=0 and zeta=1 (literature values)."""
    assert np.isclose(pw92_ec(np.array([2.0]), 0.0)[0], -0.0448, atol=2e-4)
    assert np.isclose(pw92_ec(np.array([2.0]), 1.0)[0], -0.0240, atol=2e-3)
    # high-density limit is logarithmically divergent and negative
    assert pw92_ec(np.array([0.01]), 0.0)[0] < -0.1


def test_lda_spin_scaling_exchange_limit():
    """Fully polarized exchange: E_x[rho,0] = E_x^unpol[2 rho]/2."""
    f = LDA()
    rho = np.array([0.3])
    rs = (3.0 / (4 * np.pi * rho)) ** (1 / 3)
    e_pol = f.exc_density(rho, np.zeros(1)) - rho * pw92_ec(rs, 1.0)
    e_ref = 0.5 * (
        f.exc_density(rho, rho) - 2 * rho * pw92_ec(
            (3.0 / (8 * np.pi * rho)) ** (1 / 3), 0.0
        )
    )
    assert np.allclose(e_pol, e_ref, rtol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    ru=st.floats(min_value=1e-3, max_value=2.0),
    rd=st.floats(min_value=1e-3, max_value=2.0),
)
def test_lda_complex_step_matches_fd(ru, rd):
    """Property: LDA's (closed-form) vrho agrees with finite differences."""
    f = LDA()
    out = f.evaluate(np.array([ru]), np.array([rd]))
    du, dd = _fd_vrho(f, np.array([ru]), np.array([rd]))
    assert np.isclose(out.vrho[0, 0], du[0], rtol=1e-5, atol=1e-8)
    assert np.isclose(out.vrho[0, 1], dd[0], rtol=1e-5, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    ru=st.floats(min_value=5e-3, max_value=2.0),
    rd=st.floats(min_value=5e-3, max_value=2.0),
    guu=st.floats(min_value=0.0, max_value=1.0),
    gdd=st.floats(min_value=0.0, max_value=1.0),
)
def test_pbe_complex_step_matches_fd(ru, rd, guu, gdd):
    f = PBE()
    gud = 0.5 * np.sqrt(guu * gdd)  # consistent cross term
    sig = (np.array([guu]), np.array([gud]), np.array([gdd]))
    out = f.evaluate(np.array([ru]), np.array([rd]), *sig)
    du, dd = _fd_vrho(f, np.array([ru]), np.array([rd]), sigmas=sig)
    assert np.isclose(out.vrho[0, 0], du[0], rtol=1e-4, atol=1e-7)
    assert np.isclose(out.vrho[0, 1], dd[0], rtol=1e-4, atol=1e-7)
    # vsigma via FD
    h = 1e-7
    e_plus = f.exc_density(np.array([ru]), np.array([rd]), sig[0] + h, sig[1], sig[2])
    e_minus = f.exc_density(np.array([ru]), np.array([rd]), sig[0] - h, sig[1], sig[2])
    assert np.isclose(out.vsigma[0, 0], (e_plus - e_minus)[0] / (2 * h),
                      rtol=1e-4, atol=1e-7)


def test_pbe_reduces_to_lda_at_zero_gradient():
    rho_u = np.array([0.2, 0.7])
    rho_d = np.array([0.4, 0.1])
    zero = np.zeros(2)
    e_pbe = PBE().exc_density(rho_u, rho_d, zero, zero, zero)
    e_lda = LDA().exc_density(rho_u, rho_d)
    assert np.allclose(e_pbe, e_lda, rtol=1e-10)


def test_pbe_exchange_enhancement_bounded():
    """F_x is bounded by 1 + kappa (Lieb-Oxford-motivated bound)."""
    f = PBE()
    rho = np.full(5, 0.3)
    sig = np.geomspace(1e-3, 1e3, 5)
    e = f.exc_density(rho / 2, rho / 2, sig / 4, sig / 4, sig / 4)
    rs_e = LDA().exc_density(rho / 2, rho / 2)
    # exchange grows with gradient but saturates: |e| <= |e_lda| * (1+kappa) + |ec|
    assert np.all(np.abs(e) < np.abs(rs_e) * 2.2)


def test_vacuum_region_is_zeroed():
    f = LDA()
    out = f.evaluate(np.zeros(3), np.zeros(3))
    assert np.all(out.exc == 0.0) and np.all(out.vrho == 0.0)


def test_xc_negative_everywhere_reasonable_density():
    f = PBE()
    rho = np.geomspace(1e-3, 10, 20)
    zero = np.zeros(20)
    e = f.exc_density(rho / 2, rho / 2, zero, zero, zero)
    assert np.all(e < 0)


def test_potential_and_energy_on_mesh_lda_vs_direct():
    """Mesh-level wrapper integrates exc and returns pointwise vrho (LDA)."""
    from repro.fem.mesh import uniform_mesh

    mesh = uniform_mesh((4.0, 4.0, 4.0), (2, 2, 2), degree=3)
    r2 = np.sum((mesh.node_coords - 2.0) ** 2, axis=1)
    rho = np.exp(-r2)
    spin = 0.5 * np.stack([rho, rho], axis=1)
    v, exc = LDA().potential_and_energy(mesh, spin)
    out = LDA().evaluate(spin[:, 0], spin[:, 1])
    assert np.allclose(v, out.vrho)
    assert np.isclose(exc, float(mesh.integrate(out.exc)))


def test_gga_potential_includes_divergence_term():
    """PBE nodal potential differs from bare vrho (divergence term active)."""
    from repro.fem.mesh import uniform_mesh

    mesh = uniform_mesh((6.0, 6.0, 6.0), (3, 3, 3), degree=3)
    r2 = np.sum((mesh.node_coords - 3.0) ** 2, axis=1)
    rho = np.exp(-r2) + 1e-6
    spin = 0.5 * np.stack([rho, rho], axis=1)
    v, _ = PBE().potential_and_energy(mesh, spin)
    g = mesh.gradient(rho)
    s = np.einsum("ij,ij->i", g, g)
    out = PBE().evaluate(spin[:, 0], spin[:, 1], s / 4, s / 4, s / 4)
    assert not np.allclose(v[:, 0], out.vrho[:, 0], atol=1e-8)


# ---------------------------------------------------------------------------
# LDA's closed-form potential against its oracle, the base class's complex
# step through ``LDA.exc_density``
# ---------------------------------------------------------------------------
def _closed_form_and_oracle(rho_up, rho_dn):
    f = LDA()
    return (
        f._energy_and_derivatives([rho_up, rho_dn]),
        XCFunctional._energy_and_derivatives(f, [rho_up, rho_dn]),
    )


def _rel(a, b):
    return np.max(np.abs(a - b) / np.abs(b))


@pytest.mark.parametrize("zeta_max", [0.0, 0.9, 1.0 - 1e-6])
def test_lda_closed_form_matches_complex_step_oracle(zeta_max):
    """Random densities over 1e-10 ... 10 e/bohr^3, unpolarised and polarised.

    ``exc`` is bitwise the oracle's (and ``exc_density``'s).  The potentials
    agree to 1e-13 relative from 1e-5 e/bohr^3 up.  Below that both inherit
    the rounding of PW92's ``log(1 + 1/q1)`` — ``1/q1`` is ~1e-6 at rs ~ 1e3,
    so the sum keeps ten of its digits — one analytically, one through the
    rounded function, and they part by ``eps * rho^-1/2``: 1.5e-11 at 1e-10.
    """
    rng = np.random.default_rng(22)
    rho = 10.0 ** rng.uniform(-10.0, 1.0, 20000)
    zeta = rng.uniform(-zeta_max, zeta_max, rho.size)
    rho_up, rho_dn = 0.5 * rho * (1.0 + zeta), 0.5 * rho * (1.0 - zeta)
    (exc, v), (exc_ref, v_ref) = _closed_form_and_oracle(rho_up, rho_dn)
    assert np.array_equal(exc, exc_ref)
    assert np.array_equal(exc, LDA().exc_density(rho_up, rho_dn))
    dense = rho >= 1e-5
    for got, want in zip(v, v_ref):
        assert got.dtype == np.float64
        assert _rel(got[dense], want[dense]) <= 1e-13
        assert _rel(got, want) <= 5e-11


def test_lda_closed_form_at_the_density_floor():
    """At and below RHO_FLOOR energy and potential are exactly zero, just
    above it they are the oracle's — the mask is the same on both sides."""
    total = RHO_FLOOR * np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001, 2.0])
    for zeta in (0.0, 0.3, 1.0):
        rho_up, rho_dn = 0.5 * total * (1.0 + zeta), 0.5 * total * (1.0 - zeta)
        live = (rho_up + rho_dn) > RHO_FLOOR
        assert live.tolist() == [False, False, False, True, True, True]
        (exc, v), (exc_ref, v_ref) = _closed_form_and_oracle(rho_up, rho_dn)
        assert np.array_equal(exc, exc_ref) and np.all(exc[~live] == 0.0)
        for s, (got, want) in enumerate(zip(v, v_ref)):
            assert np.all(got[~live] == 0.0) and np.all(want[~live] == 0.0)
            if zeta < 1.0 or s == 0:  # the empty channel: next test
                assert _rel(got[live], want[live]) <= 1e-9


def test_lda_closed_form_is_exact_at_zero_spin_density():
    """zeta = +-1 exactly (the mixer clips a spin density to 0).

    The occupied channel agrees with the oracle to rounding.  In the empty
    one the exchange potential is exactly 0 and the closed form is good to
    rounding (it agrees with itself in extended precision), while the complex
    step is not a derivative there: ``Im [C_x/2 (2ih)^(4/3)] / h`` is ``C_x
    (2h)^(1/3) sin(2 pi/3)``, -8.1e-11 Ha in exchange alone at h = 1e-30, and the same
    branch cut in ``(1 - zeta)^(4/3)`` adds a correlation term that grows as
    ``rho^-1/3``.  The same family as the sigma < 1e-30 artefact PR 17 found.
    """
    rho = np.array([1e-3, 0.3, 3.0])
    zero = np.zeros_like(rho)
    artefact = np.imag(lda_module.lda_exchange_energy_density(rho, zero + 1e-30j))
    np.testing.assert_allclose(artefact / 1e-30, -8.0586e-11, rtol=1e-4)
    for flip in (False, True):
        args = (zero, rho) if flip else (rho, zero)
        (_, v), (_, v_ref) = _closed_form_and_oracle(*args)
        full, empty = (1, 0) if flip else (0, 1)
        assert _rel(v[full], v_ref[full]) <= 1e-13
        _, v_long = LDA()._energy_and_derivatives(
            [a.astype(np.longdouble) for a in args]
        )
        assert _rel(v[empty], v_long[empty].astype(float)) <= 1e-14
        gap = np.abs(v_ref[empty] - v[empty])
        assert np.all(gap > 1e-11) and np.all(gap < 1e-9)


def test_lda_closed_form_refuses_complex_densities():
    """It is real arithmetic only; a complex step has to go through
    ``exc_density``, not lose its imaginary part here."""
    rho = np.array([0.2, 0.5])
    with pytest.raises(TypeError, match="real densities"):
        LDA()._energy_and_derivatives([rho + 1e-30j, rho])
    with pytest.raises(TypeError, match="real densities"):
        LDA()._energy_and_derivatives([rho, rho.astype(complex)])


def test_pbe_complex_step_runs_through_the_shared_pw92_forms(monkeypatch):
    """PBE still differentiates by complex step, and the PW92 it steps
    through is the one pair of forms the closed-form LDA potential uses."""
    seen = []
    forms = lda_module._pw92_forms

    def spy(rs):
        seen.append(np.iscomplexobj(rs))
        return forms(rs)

    monkeypatch.setattr(lda_module, "_pw92_forms", spy)
    rho = np.array([0.2, 0.7])
    sigma = np.array([0.05, 0.3])
    PBE().evaluate(rho, 0.5 * rho, sigma, 0.5 * sigma, sigma)
    # one real pass, then one step per input; rs is complex in the density steps
    assert seen == [False, True, True, False, False, False]
    seen.clear()
    LDA().evaluate(rho, 0.5 * rho)
    assert seen == [False]  # one real pass, no step


# ---------------------------------------------------------------------------
# The derivative step runs on the live rows only.  Its oracle is the
# evaluate-everything-then-mask form ``evaluate`` had before the gather.
# ---------------------------------------------------------------------------
def _contractions(mesh, spin):
    g_up, g_dn = mesh.gradient(spin[:, 0]), mesh.gradient(spin[:, 1])
    return [
        spin[:, 0], spin[:, 1], np.einsum("ij,ij->i", g_up, g_up),
        np.einsum("ij,ij->i", g_up, g_dn), np.einsum("ij,ij->i", g_dn, g_dn),
    ]


def _dirichlet_inputs(functional):
    """A polarised Gaussian on a Dirichlet mesh: rho = 0 on the boundary
    nodes, a few interior nodes under the floor and a negative one."""
    from repro.fem.mesh import uniform_mesh

    mesh = uniform_mesh((8.0, 8.0, 8.0), (3, 3, 3), degree=3)
    r2 = np.sum((mesh.node_coords - np.array([3.7, 4.2, 4.1])) ** 2, axis=1)
    rho = np.exp(-r2 / 2.0)
    spin = np.stack([0.6 * rho, 0.4 * rho], axis=1)
    spin[mesh.boundary_mask] = 0.0
    interior = mesh.free[::97]
    spin[interior[:3]] = 0.3 * RHO_FLOOR
    spin[interior[3], 0] = -0.1
    args = _contractions(mesh, spin)
    if not functional.needs_gradient:
        args = args[:2]
    live = (np.maximum(spin[:, 0], 0.0) + np.maximum(spin[:, 1], 0.0)) > RHO_FLOOR
    assert 0 < live.sum() < 0.7 * live.size
    return mesh, spin, args, live


def _fields(out):
    return {name: getattr(out, name) for name in ("exc", "vrho", "vsigma")}


@pytest.mark.parametrize("functional", [LDA(), PBE()], ids=["LDA", "PBE"])
def test_live_gather_is_bitwise_the_evaluate_everything_oracle(functional):
    mesh, spin, args, live = _dirichlet_inputs(functional)
    out = functional.evaluate(*args)
    ref = reference_evaluate_then_mask(functional, *args)
    for name, got in _fields(out).items():
        want = getattr(ref, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert np.array_equal(got, want), name
            assert np.all(got[~live] == 0.0), name
    v, exc = functional.potential_and_energy(mesh, spin)
    assert exc == float(mesh.integrate(ref.exc))
    if functional.needs_gradient:
        g_up, g_dn = mesh.gradient(spin[:, 0]), mesh.gradient(spin[:, 1])
        assert np.array_equal(v, ref.potential(mesh, g_up, g_dn))
    else:
        assert np.array_equal(v, ref.vrho)


def test_live_gather_of_the_neural_functionals_matches_the_oracle():
    """The network's GEMMs run on fewer rows, which may round differently."""
    functional = MLXC.pretrained()
    _, _, args, live = _dirichlet_inputs(functional)
    out = functional.evaluate(*args)
    ref = reference_evaluate_then_mask(functional, *args)
    for field, got in _fields(out).items():
        want = getattr(ref, field)
        assert (got is None) == (want is None), field
        if got is not None:
            assert np.all(got[~live] == 0.0) and np.all(want[~live] == 0.0), field
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), field


def test_all_live_input_reaches_the_derivative_step_ungathered():
    """Periodic and positive everywhere: the step receives the caller's own
    arrays (the clamped densities ``evaluate`` always makes aside), so there
    is no gather and no copy; the tape's row index is ``slice(None)``."""
    from repro.fem.mesh import uniform_mesh

    seen: list = []

    class Spy(PBE):
        def _energy_and_derivatives(self, args, tape=None):
            seen.append(args)
            return super()._energy_and_derivatives(args, tape)

    mesh = uniform_mesh((6.0, 6.0, 6.0), (2, 2, 2), degree=3, pbc=(True,) * 3)
    r2 = np.sum((mesh.node_coords - 3.0) ** 2, axis=1)
    rho = 0.01 + np.exp(-r2 / 2.0)
    args = _contractions(mesh, np.stack([0.6 * rho, 0.4 * rho], axis=1))
    tape: list = []
    out = Spy().evaluate(*args, tape=tape)
    (got,) = seen
    assert all(a is b for a, b in zip(got[2:], args[2:]))
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], args[:2]))
    assert tape == [slice(None)]
    ref = reference_evaluate_then_mask(PBE(), *args)
    for name, field in _fields(out).items():
        if field is not None:
            assert np.array_equal(field, getattr(ref, name)), name


def test_evaluate_opens_one_xc_span_with_its_point_counts():
    from repro.obs import set_enabled, trace_region

    _, _, args, live = _dirichlet_inputs(LDA())
    prev = set_enabled(True)
    try:
        with trace_region("outer") as root:
            LDA().evaluate(*args)
    finally:
        set_enabled(prev)
    assert [c.name for c in root.children] == ["XC"]
    assert root.children[0].attrs == {"points": live.size, "live": int(live.sum())}


def test_xc_interface_is_pinned():
    """What every functional returns and what ``evaluate`` takes: the spin
    densities, the three gradient contractions and the trainer's tape.  A
    new field or argument shows up here as a reviewed diff."""
    import inspect
    from dataclasses import fields

    from repro.xc.base import XCOutput

    assert [f.name for f in fields(XCOutput)] == ["exc", "vrho", "vsigma"]
    assert list(inspect.signature(XCFunctional.evaluate).parameters)[1:] == [
        "rho_up", "rho_dn", "sigma_uu", "sigma_ud", "sigma_dd", "tape",
    ]
