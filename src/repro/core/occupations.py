"""Fermi-Dirac occupations, chemical potential search, smearing entropy.

The paper's benchmark systems are metallic (Mg alloys, quasicrystals), so
fractional occupations with Fermi-Dirac smearing are essential; the SCF
minimizes the Mermin free energy ``F = E - T S``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["fermi_dirac", "find_fermi_level", "smearing_entropy", "OccupationSet"]


def fermi_dirac(eigenvalues: np.ndarray, mu: float, temperature: float) -> np.ndarray:
    """Occupation f(eps) = 1 / (1 + exp((eps - mu)/kT)); kT in Hartree.

    ``temperature`` is k_B T in Hartree.  A zero temperature gives a sharp
    step (degenerate states at the Fermi level get occupation 1/2).
    """
    eps = np.asarray(eigenvalues, dtype=float)
    if temperature <= 0.0:
        f = np.where(eps < mu, 1.0, 0.0)
        f[np.isclose(eps, mu, atol=1e-12)] = 0.5
        return f
    x = (eps - mu) / temperature
    x = np.clip(x, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(x))


def _brent_root(
    f: Callable[[float], float], xa: float, fa: float, xb: float, fb: float
) -> float:
    """Root of ``f`` in ``[xa, xb]``, where ``fa = f(xa)`` and ``fb = f(xb)`` are
    of opposite sign (or one of them is zero: that end is the root).

    Brent's method (inverse quadratic or secant step when it lands well inside
    the bracket, bisection otherwise), operation for operation the recurrence
    scipy's ``brentq`` runs at ``xtol=1e-13``, ``rtol=4 eps`` and 100
    iterations: the iterates and the root are bitwise its own, which is what
    keeps every pinned energy where it is (tests compare the two).
    """
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    xtol, rtol = 1e-13, 4.0 * float(np.finfo(float).eps)
    xpre, fpre, xcur, fcur = xa, fa, xb, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # zero when the slopes underflow or a step-like count repeats a
                # value; C divides to inf or NaN there, and such a step bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else np.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError("Fermi-level search failed to converge after 100 iterations")


@dataclass
class OccupationSet:
    """Occupations for a set of (k-point, spin) channels."""

    occupations: list[np.ndarray]  #: per channel, same shapes as eigenvalues
    fermi_level: float
    entropy: float  #: dimensionless smearing entropy S/k_B (total, weighted)


def find_fermi_level(
    eigenvalues: list[np.ndarray],
    weights: list[float],
    n_electrons: float,
    temperature: float,
    degeneracy: float = 2.0,
) -> OccupationSet:
    """Find mu such that the weighted occupation sum equals ``n_electrons``.

    Parameters
    ----------
    eigenvalues:
        One array of eigenvalues per (k-point, spin) channel.
    weights:
        Channel weights (k-point weights; they must sum to 1 per spin).
    degeneracy:
        2 for spin-restricted channels, 1 for spin-polarized ones.

    Raises ``ValueError`` when the states cannot hold ``n_electrons``, when a
    channel holds a non-finite eigenvalue, or when no chemical potential in
    the bracket gives ``n_electrons`` (a negative count, for one);
    ``RuntimeError`` if the search has not converged in 100 iterations.
    """
    all_eps = np.concatenate([np.asarray(e, float) for e in eigenvalues])
    if all_eps.size == 0:
        raise ValueError("no eigenvalues supplied")
    max_electrons = degeneracy * sum(
        w * np.asarray(e).size for e, w in zip(eigenvalues, weights)
    )
    if n_electrons > max_electrons + 1e-9:
        raise ValueError(
            f"cannot place {n_electrons} electrons in {max_electrons} weighted states"
        )
    if not np.isfinite(all_eps).all():
        bad = [i for i, e in enumerate(eigenvalues) if not np.isfinite(e).all()]
        raise ValueError(f"non-finite eigenvalues in channel(s) {bad}")

    def count(mu: float) -> float:
        return float(
            sum(
                w * degeneracy * fermi_dirac(e, mu, temperature).sum()
                for e, w in zip(eigenvalues, weights)
            )
            - n_electrons
        )

    spread = max(50.0 * max(temperature, 1e-3), 1.0)
    lo, hi = float(all_eps.min()) - spread, float(all_eps.max()) + spread
    f_lo, f_hi = count(lo), count(hi)
    if f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(
            f"no Fermi level for n_electrons={n_electrons} in {max_electrons} "
            f"weighted states: the electron count is off by {f_lo:+.6g} at the "
            f"bottom of the bracket and by {f_hi:+.6g} at the top"
        )
    mu = _brent_root(count, lo, f_lo, hi, f_hi)

    occs: list[np.ndarray] = []
    entropy = 0.0
    for e, w in zip(eigenvalues, weights):
        f = fermi_dirac(e, mu, temperature)
        occs.append(degeneracy * f)
        if temperature > 0:
            fc = np.clip(f, 1e-300, 1 - 1e-16)
            s = -(fc * np.log(fc) + (1 - fc) * np.log1p(-fc))
            entropy += w * degeneracy * float(np.sum(np.where((f > 0) & (f < 1), s, 0.0)))
    return OccupationSet(occupations=occs, fermi_level=mu, entropy=entropy)


def smearing_entropy(occ_fraction: np.ndarray) -> float:
    """Entropy contribution -sum(f ln f + (1-f) ln(1-f)) of one channel."""
    f = np.clip(np.asarray(occ_fraction, float), 0.0, 1.0)
    inner = (f > 1e-300) & (f < 1.0 - 1e-16)
    fc = f[inner]
    return float(-(fc * np.log(fc) + (1 - fc) * np.log1p(-fc)).sum())
