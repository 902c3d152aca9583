"""Occupations (Fermi-Dirac, mu search, entropy) and density mixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mixing import AndersonMixer
from repro.core.occupations import fermi_dirac, find_fermi_level, smearing_entropy


def test_fermi_dirac_limits():
    eps = np.array([-1.0, 0.0, 1.0])
    f = fermi_dirac(eps, mu=0.0, temperature=1e-3)
    assert f[0] > 0.999 and f[2] < 1e-3
    assert np.isclose(f[1], 0.5)
    # zero temperature: sharp step
    f0 = fermi_dirac(eps, mu=0.0, temperature=0.0)
    assert f0[0] == 1.0 and f0[1] == 0.5 and f0[2] == 0.0


@settings(max_examples=25, deadline=None)
@given(
    n_e=st.integers(min_value=1, max_value=10),
    seed=st.integers(0, 10**6),
    T=st.floats(min_value=1e-4, max_value=5e-2),
)
def test_fermi_level_conserves_electron_count(n_e, seed, T):
    """Property: weighted occupations always sum to the electron count."""
    rng = np.random.default_rng(seed)
    evals = [np.sort(rng.normal(size=12)), np.sort(rng.normal(size=12))]
    weights = [0.4, 0.6]
    occ = find_fermi_level(evals, weights, n_e, T)
    total = sum(w * o.sum() for w, o in zip(weights, occ.occupations))
    assert np.isclose(total, n_e, atol=1e-9)
    assert occ.entropy >= 0.0


def test_fermi_level_insulator_vs_metal():
    evals = [np.array([-2.0, -1.0, 1.0, 2.0])]
    occ = find_fermi_level(evals, [1.0], 4.0, 1e-3)
    assert -1.0 < occ.fermi_level < 1.0
    assert np.allclose(occ.occupations[0], [2, 2, 0, 0], atol=1e-6)
    # metallic: degenerate states at mu share electrons
    evals_m = [np.array([-1.0, 0.0, 0.0, 1.0])]
    occ_m = find_fermi_level(evals_m, [1.0], 4.0, 1e-3)
    assert np.allclose(occ_m.occupations[0][1:3], 1.0, atol=1e-6)
    assert occ_m.entropy > 0.5  # two half-filled states


def test_too_many_electrons_raises():
    with pytest.raises(ValueError, match="cannot place"):
        find_fermi_level([np.array([0.0])], [1.0], 5.0, 1e-3)
    # still the first check: it wins over a non-finite eigenvalue
    with pytest.raises(ValueError, match="cannot place"):
        find_fermi_level([np.array([np.nan])], [1.0], 5.0, 1e-3)


# ---------------------------------------------------------------------------
# the root find against its oracle: scipy.optimize.brentq on the same function
def _brentq_oracle(eigenvalues, weights, n_electrons, temperature, degeneracy):
    """(mu, count() calls) of ``brentq(count, lo, hi, xtol=1e-13)``."""
    from scipy.optimize import brentq

    calls = 0

    def count(mu):
        nonlocal calls
        calls += 1
        return sum(
            w * degeneracy * fermi_dirac(e, mu, temperature).sum()
            for e, w in zip(eigenvalues, weights)
        ) - n_electrons

    all_eps = np.concatenate(eigenvalues)
    spread = max(50.0 * max(temperature, 1e-3), 1.0)
    lo, hi = float(all_eps.min()) - spread, float(all_eps.max()) + spread
    return float(brentq(count, lo, hi, xtol=1e-13)), calls


def _ported(monkeypatch, eigenvalues, weights, n_electrons, temperature, degeneracy):
    """(mu, count() calls) of ``find_fermi_level``."""
    from repro.core import occupations

    evaluations = 0

    def counting(eps, mu, temperature):
        nonlocal evaluations
        evaluations += 1
        return fermi_dirac(eps, mu, temperature)

    monkeypatch.setattr(occupations, "fermi_dirac", counting)
    occ = find_fermi_level(eigenvalues, weights, n_electrons, temperature, degeneracy)
    # one evaluation per channel per count(), plus the final occupations
    return occ.fermi_level, evaluations // len(eigenvalues) - 1


#: exact binary fractions, so a completely filled set counts to exactly zero
_CHANNEL_WEIGHTS = {1: [1.0], 2: [0.5, 0.5], 3: [0.25, 0.25, 0.5]}


@pytest.mark.parametrize("temperature", [0.0, 1e-4, 1e-3, 5e-3, 3e-2])
@pytest.mark.parametrize("filling", ["fractional", "integer", "full", "degenerate"])
def test_fermi_level_is_bitwise_brentq(monkeypatch, filling, temperature):
    """mu and the number of count() calls equal scipy's, case by case."""
    rng = np.random.default_rng([int(temperature * 1e6), len(filling)])
    for n_channels, weights in _CHANNEL_WEIGHTS.items():
        for degeneracy in (1.0, 2.0):
            for n_states in rng.integers(3, 41, size=3):
                evals = [np.sort(rng.normal(size=n_states)) for _ in weights]
                capacity = degeneracy * n_states
                if filling == "fractional":
                    n_e = rng.uniform(0.05, capacity - 0.05)
                elif filling == "integer":
                    n_e = float(rng.integers(1, int(capacity)))
                elif filling == "full":
                    n_e = capacity
                else:
                    # the scf_Li2 pattern: a pair 1e-9 apart in every channel,
                    # filled up to and including its lower member
                    for e in evals:
                        e[:2] = -0.5e-9, 0.5e-9
                        e.sort()
                    n_e = degeneracy * sum(
                        w * np.count_nonzero(e < 0.0) for e, w in zip(evals, weights)
                    )
                case = (evals, weights, n_e, temperature, degeneracy)
                mu_ref, calls_ref = _brentq_oracle(*case)
                mu, calls = _ported(monkeypatch, *case)
                assert mu == mu_ref and calls == calls_ref, (n_channels, n_states)
                if filling == "full":
                    assert calls == 2  # the root is the top of the bracket


def test_fermi_level_rejects_bad_input_in_its_own_words():
    evals = [np.array([-1.0, 0.0]), np.array([-1.0, np.inf])]
    with pytest.raises(ValueError, match=r"non-finite eigenvalues in channel\(s\) \[1\]"):
        find_fermi_level(evals, [0.5, 0.5], 2.0, 1e-3)
    with pytest.raises(ValueError, match="channel"):
        find_fermi_level([np.array([np.nan, 0.0])], [1.0], 2.0, 1e-3)
    evals = [np.array([-1.0, 0.0, 1.0])]
    for n_e in (-1.0, 0.0):
        with pytest.raises(ValueError) as err:
            find_fermi_level(evals, [1.0], n_e, 1e-3)
        message = str(err.value)
        assert f"n_electrons={n_e}" in message and "6.0 weighted states" in message
        assert "bottom of the bracket" in message and "at the top" in message


def test_fermi_level_search_gives_up_after_100_iterations():
    """A step of the T = 0 count 1e-12 wide inside a 2e300-wide bracket is a
    thousand bisections away; scipy's search raises the same type."""
    case = ([np.array([-1e300, 0.0, 1e300])], [1.0], 2.5, 0.0, 2.0)
    with pytest.raises(RuntimeError, match="100 iterations"):
        find_fermi_level(*case)
    with pytest.raises(RuntimeError, match="100 iterations"):
        _brentq_oracle(*case)


def test_smearing_entropy_peak_at_half_filling():
    assert np.isclose(smearing_entropy(np.array([0.5])), np.log(2))
    assert smearing_entropy(np.array([0.0, 1.0])) == 0.0


def test_anderson_fixed_point_linear_problem():
    """Anderson reaches the fixed point of an affine map much faster."""
    rng = np.random.default_rng(3)
    n = 20
    A = 0.6 * rng.random((n, n)) / n  # contraction
    b = rng.random(n)
    x_star = np.linalg.solve(np.eye(n) - A, b)

    def run(mix, iters):
        x = np.zeros(n)
        for _ in range(iters):
            x = mix(x, A @ x + b)
        return np.linalg.norm(x - x_star)

    def damped(x_in, x_out):
        return x_in + 0.5 * (x_out - x_in)

    err_lin = run(damped, 12)
    err_and = run(AndersonMixer(0.5, history=6).mix, 12)
    assert err_and < 0.05 * err_lin


def test_anderson_reset_clears_history():
    m = AndersonMixer(0.4, history=3)
    m.mix(np.zeros(4), np.ones(4))
    assert len(m._res) == 1
    m.reset()
    assert len(m._res) == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_anderson_first_step_is_linear(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.random(5), rng.random(5)
    am = AndersonMixer(0.3).mix(a, b)
    assert np.allclose(am, a + 0.3 * (b - a))
