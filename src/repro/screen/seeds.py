"""Family-aware seed store: converged densities as warm starts.

The first reuse layer of a screening campaign.  Every converged member
deposits its density here, keyed by its structure descriptor; each new
member asks for the density of its **nearest already-solved neighbor**
in descriptor space.  Three outcomes:

* matching discretization — the neighbor's density is handed over as a
  bitwise copy (the shared-domain campaign path);
* different mesh — the density is evaluated at the new mesh's nodes
  through :class:`repro.fem.interpolation.FieldInterpolator`, floored
  and renormalized to the member's electron count;
* no neighbor close enough (relative descriptor distance beyond the
  OOD threshold) — the store declines and the caller falls back to the
  superposition-of-atomic-densities cold start.

A seed only shapes the SCF *trajectory*, never its fixed point: the
solver still converges to the member's own ground state (the golden
tests pin cold-vs-seeded energies to 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.fem.interpolation import FieldInterpolator
from repro.fem.mesh import Mesh3D

__all__ = ["SeedEntry", "SeedStore", "meshes_match"]


def meshes_match(a: Mesh3D, b: Mesh3D) -> bool:
    """True when two meshes carry identical discretizations.

    Identity of the FE space — degree, periodicity and the exact cell
    edges — which is the precondition for transferring nodal fields as
    bitwise copies.
    """
    if a is b:
        return True
    if a.degree != b.degree or tuple(a.pbc) != tuple(b.pbc):
        return False
    return all(
        ea.shape == eb.shape and np.array_equal(ea, eb)
        for ea, eb in zip(a.edges, b.edges)
    )


@dataclass
class SeedEntry:
    """One deposited density: descriptor + field + provenance."""

    key: str
    descriptor: np.ndarray
    rho_spin: np.ndarray
    mesh: Mesh3D
    index: int = 0  #: insertion order (the deterministic tie-break)


@dataclass
class SeedStoreStats:
    """Counters of one store lifetime."""

    deposits: int = 0
    queries: int = 0
    hits_exact: int = 0  #: matching mesh, bitwise copy
    hits_interpolated: int = 0
    misses_empty: int = 0
    misses_ood: int = 0

    @property
    def hit_rate(self) -> float:
        if self.queries == 0:
            return 0.0
        return (self.hits_exact + self.hits_interpolated) / self.queries

    def as_dict(self) -> dict[str, float]:
        return {
            "deposits": float(self.deposits),
            "queries": float(self.queries),
            "hits_exact": float(self.hits_exact),
            "hits_interpolated": float(self.hits_interpolated),
            "misses_empty": float(self.misses_empty),
            "misses_ood": float(self.misses_ood),
            "hit_rate": self.hit_rate,
        }


class SeedStore:
    """Nearest-neighbor warm-start store over structure descriptors.

    ``ood_threshold`` bounds the *relative* descriptor distance
    (Euclidean, normalized by the larger descriptor norm) up to which a
    neighbor is trusted as a seed; beyond it the store reports an
    out-of-distribution miss.  Selection is deterministic: exact
    distance ties go to the earliest deposit.
    """

    def __init__(self, ood_threshold: float = 0.5) -> None:
        if ood_threshold <= 0.0:
            raise ValueError("ood_threshold must be positive")
        self.ood_threshold = float(ood_threshold)
        self.entries: list[SeedEntry] = []
        self.stats = SeedStoreStats()

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        descriptor: np.ndarray,
        rho_spin: np.ndarray,
        mesh: Mesh3D,
    ) -> SeedEntry:
        """Deposit a converged density (stored as a private copy)."""
        entry = SeedEntry(
            key=str(key),
            descriptor=np.asarray(descriptor, dtype=float).copy(),
            rho_spin=np.asarray(rho_spin, dtype=float).copy(),
            mesh=mesh,
            index=len(self.entries),
        )
        self.entries.append(entry)
        self.stats.deposits += 1
        return entry

    @staticmethod
    def distance(a: np.ndarray, b: np.ndarray) -> float:
        """Relative Euclidean descriptor distance (scale-free)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-30)
        return float(np.linalg.norm(a - b)) / scale

    def nearest(
        self, descriptor: np.ndarray
    ) -> tuple[SeedEntry | None, float]:
        """Closest entry and its relative distance (None when empty).

        Deterministic: strict ``<`` on distance means equal-distance
        entries resolve to the earliest insertion.
        """
        best: SeedEntry | None = None
        best_d = np.inf
        for entry in self.entries:
            d = self.distance(descriptor, entry.descriptor)
            if d < best_d:
                best, best_d = entry, d
        return best, float(best_d)

    # ------------------------------------------------------------------
    def seed_for(
        self,
        descriptor: np.ndarray,
        mesh: Mesh3D,
        n_electrons: float,
    ) -> tuple[np.ndarray | None, dict[str, Any]]:
        """Warm-start density for a new member, or None to start cold.

        Returns ``(rho_spin, info)``; ``info`` records the decision
        (``source``: "exact" / "interpolated" / None, the neighbor key
        and distance) for campaign reporting.
        """
        self.stats.queries += 1
        entry, dist = self.nearest(descriptor)
        if entry is None:
            self.stats.misses_empty += 1
            return None, {"source": None, "reason": "empty-store"}
        if dist > self.ood_threshold:
            self.stats.misses_ood += 1
            return None, {
                "source": None, "reason": "ood",
                "neighbor": entry.key, "distance": dist,
            }
        info = {"neighbor": entry.key, "distance": dist}
        if meshes_match(entry.mesh, mesh):
            self.stats.hits_exact += 1
            info["source"] = "exact"
            return entry.rho_spin.copy(), info
        rho = self._interpolate(entry, mesh, n_electrons)
        if rho is None:
            self.stats.misses_ood += 1
            return None, {
                "source": None, "reason": "degenerate-interpolation",
                "neighbor": entry.key, "distance": dist,
            }
        self.stats.hits_interpolated += 1
        info["source"] = "interpolated"
        return rho, info

    @staticmethod
    def _interpolate(
        entry: SeedEntry, mesh: Mesh3D, n_electrons: float
    ) -> np.ndarray | None:
        """Evaluate the donor density on a different mesh's nodes.

        Target nodes are clamped into the donor domain (a larger target
        domain samples the donor's boundary value), negative wiggle from
        the high-order interpolant is floored at zero, and the total is
        renormalized to the member's electron count — a seed must be an
        admissible density, not just a nearby field.
        """
        pts = np.asarray(mesh.node_coords, dtype=float).copy()
        donor = entry.mesh
        for a in range(3):
            e = donor.edges[a]
            pts[:, a] = np.clip(pts[:, a], float(e[0]), float(e[-1]))
        vals = FieldInterpolator(donor)(entry.rho_spin, pts)
        rho = np.maximum(np.asarray(vals, dtype=float), 0.0)
        total = float(mesh.integrate(rho.sum(axis=1)))
        if not np.isfinite(total) or total <= 0.0:
            return None
        return rho * (float(n_electrons) / total)
