"""Structure families: the unit of work of a screening campaign.

The paper's applications are parameterized families — quasicrystal
approximants by order, dislocation cells by solute placement, alloys by
composition.  A :class:`StructureFamily` declares such a sweep as an
ordered set of :class:`FamilyMember` structures plus a fixed-length
**structure descriptor** per member; descriptor distance is what the
seed store uses to pick the nearest already-converged neighbor and what
the surrogate uses to judge whether a prediction is in-distribution.

Families of isolated systems can share one discretization: the family
domain is the union bounding box of every member plus padding, so all
members live on the *same* :class:`~repro.fem.mesh.Mesh3D` — the setup
cache then builds the mesh/ScatterMap/quadrature once, and converged
densities transfer between members bitwise, with no cross-mesh
interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.fem.mesh import Mesh3D, graded_edges

__all__ = [
    "FamilyMember",
    "StructureFamily",
    "chain_family",
    "dimer_family",
    "domain_mesh",
    "family_domain",
    "solute_chain_family",
    "structure_descriptor",
]

#: length of the structure descriptor vector
DESCRIPTOR_SIZE = 8


def structure_descriptor(config: AtomicConfiguration) -> np.ndarray:
    """Fixed-length geometric/compositional fingerprint of a structure.

    Translation-invariant and deterministic: atom counts, electron
    counts, pairwise-distance statistics and the radius of gyration.
    Nearby family members (one solute hop, a small bond stretch, one
    extra period) land close in this space; members from a different
    family land far away — which is exactly the property the seed
    store's nearest-neighbor lookup and OOD guard need.
    """
    pos = np.atleast_2d(config.positions)
    n = pos.shape[0]
    zs = np.array([el.Z for el in config.elements], dtype=float)
    centered = pos - pos.mean(axis=0)
    gyration = float(np.sqrt((centered**2).sum(axis=1).mean()))
    if n > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        off = dist[np.triu_indices(n, k=1)]
        d_min, d_mean, d_max = (
            float(off.min()), float(off.mean()), float(off.max())
        )
    else:
        d_min = d_mean = d_max = 0.0
    return np.array(
        [
            float(n),
            float(config.n_electrons),
            float(zs.sum()),
            float(zs.max()),
            d_min,
            d_mean,
            d_max,
            gyration,
        ]
    )


@dataclass(frozen=True)
class FamilyMember:
    """One structure of a family: a config plus its sweep parameters."""

    name: str
    config: AtomicConfiguration
    #: the swept parameters that generated this member (JSON scalars)
    params: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Ordering key for small-to-large campaigns (electron count)."""
        return int(self.config.n_electrons)

    def descriptor(self) -> np.ndarray:
        return structure_descriptor(self.config)


@dataclass(frozen=True)
class StructureFamily:
    """A named, ordered sweep of related structures."""

    name: str
    members: tuple[FamilyMember, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a structure family needs at least one member")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate member names in family {self.name!r}")

    def __len__(self) -> int:
        return len(self.members)

    def ordered(self) -> tuple[FamilyMember, ...]:
        """Members size-ascending (ties broken by name — deterministic).

        Small-to-large is the campaign order that makes reuse work: the
        cheap members converge first and their densities seed (or train
        the surrogate for) the expensive ones.
        """
        return tuple(
            sorted(self.members, key=lambda m: (m.size, m.name))
        )

    @property
    def isolated(self) -> bool:
        """True when no member is periodic (shared-domain eligible)."""
        return not any(any(m.config.pbc) for m in self.members)


# ---------------------------------------------------------------------------
# shared discretization
# ---------------------------------------------------------------------------


def family_domain(
    family: StructureFamily, padding: float = 6.0
) -> tuple[np.ndarray, dict[str, AtomicConfiguration]]:
    """Union bounding box of every member, plus shifted member configs.

    Returns ``(lengths, configs)`` where ``lengths`` is the shared
    domain size and ``configs`` maps member name to its configuration
    translated into that domain.  Every member keeps its own geometry;
    only the embedding is common — which is what lets all members share
    one mesh and exchange densities without interpolation.
    """
    if not family.isolated:
        raise ValueError(
            "shared domains are defined for isolated-system families only"
        )
    lo = np.min([m.config.positions.min(axis=0) for m in family.members], axis=0)
    hi = np.max([m.config.positions.max(axis=0) for m in family.members], axis=0)
    lo = lo - padding
    lengths = (hi + padding) - lo
    configs = {
        m.name: AtomicConfiguration(
            list(m.config.symbols), m.config.positions - lo
        )
        for m in family.members
    }
    return lengths, configs


def domain_mesh(
    lengths: Sequence[float],
    cells_per_axis: int | tuple[int, int, int] = 3,
    degree: int = 3,
    grading_ratio: float = 2.0,
) -> Mesh3D:
    """Mesh over a fixed domain, graded toward the domain center.

    Deterministic in its arguments alone (no per-structure grading), so
    the same numbers always rebuild a bit-identical mesh — the property
    that makes seed densities transfer between members as bitwise copies.
    """
    if isinstance(cells_per_axis, int):
        cells_per_axis = (cells_per_axis,) * 3
    lengths = np.asarray(lengths, dtype=float)
    edges = tuple(
        graded_edges(
            float(lengths[a]), cells_per_axis[a],
            center=float(lengths[a]) / 2.0, ratio=grading_ratio,
        )
        for a in range(3)
    )
    return Mesh3D(edges=edges, degree=degree)


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def dimer_family(
    symbol: str = "H",
    bonds: Sequence[float] = (1.2, 1.3, 1.4, 1.5, 1.6),
) -> StructureFamily:
    """Bond-length scan of a homonuclear dimer (composition axis)."""
    members = []
    for b in bonds:
        b = float(b)
        cfg = AtomicConfiguration(
            [symbol, symbol], [[0.0, 0.0, 0.0], [b, 0.0, 0.0]]
        )
        members.append(
            FamilyMember(
                name=f"{symbol}2-b{b:.3f}", config=cfg, params={"bond": b}
            )
        )
    return StructureFamily(name=f"{symbol}2-scan", members=tuple(members))


def chain_family(
    symbol: str = "H",
    sizes: Sequence[int] = (2, 3, 4),
    spacing: float = 1.8,
) -> StructureFamily:
    """Linear chains of increasing length (approximant-order axis).

    The small members are the surrogate's training set; the large ones
    are where a learned density pays — the same small-to-large transfer
    as the paper's approximant hierarchy.
    """
    members = []
    for n in sizes:
        n = int(n)
        if n < 1:
            raise ValueError("chain length must be >= 1")
        pos = [[i * float(spacing), 0.0, 0.0] for i in range(n)]
        cfg = AtomicConfiguration([symbol] * n, pos)
        members.append(
            FamilyMember(
                name=f"{symbol}{n}-chain", config=cfg,
                params={"n": n, "spacing": float(spacing)},
            )
        )
    return StructureFamily(name=f"{symbol}-chain", members=tuple(members))


def solute_chain_family(
    host: str = "H",
    solute: str = "Li",
    n: int = 4,
    spacing: float = 1.8,
    sites: Sequence[int] | None = None,
) -> StructureFamily:
    """One solute atom swept along the sites of a host chain.

    The laptop-scale analogue of the paper's dislocation–solute scan:
    identical host geometry, one substitutional defect at a varying
    site.
    """
    n = int(n)
    if sites is None:
        sites = range(n)
    members = []
    for site in sites:
        site = int(site)
        if not 0 <= site < n:
            raise ValueError(f"solute site {site} outside chain of length {n}")
        symbols = [host] * n
        symbols[site] = solute
        pos = [[i * float(spacing), 0.0, 0.0] for i in range(n)]
        cfg = AtomicConfiguration(symbols, pos)
        members.append(
            FamilyMember(
                name=f"{host}{n}-{solute}@{site}", config=cfg,
                params={"site": site, "n": n, "spacing": float(spacing)},
            )
        )
    return StructureFamily(
        name=f"{host}{n}-{solute}-sweep", members=tuple(members)
    )

