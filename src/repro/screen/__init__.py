"""High-throughput family screening with warm-start reuse (DESIGN.md sec 16).

The paper's applications are parameterized structure families; this
package sweeps one in process.  A campaign orders a family small-to-large
and replaces cold superposition starts with reused state: one shared
discretization, a nearest-neighbor converged-density seed store, and an ML
density surrogate trained on the small members — all correctness-
neutral (seeds change iteration counts, never converged energies).
"""

from .driver import (
    CampaignReport,
    MemberOutcome,
    ScreenCampaign,
)
from .family import (
    FamilyMember,
    StructureFamily,
    chain_family,
    dimer_family,
    domain_mesh,
    family_domain,
    solute_chain_family,
    structure_descriptor,
)
from .seeds import SeedEntry, SeedStore, meshes_match
from .surrogate import DensitySurrogate, node_features

__all__ = [
    "CampaignReport",
    "DensitySurrogate",
    "FamilyMember",
    "MemberOutcome",
    "ScreenCampaign",
    "SeedEntry",
    "SeedStore",
    "StructureFamily",
    "chain_family",
    "dimer_family",
    "domain_mesh",
    "family_domain",
    "meshes_match",
    "node_features",
    "solute_chain_family",
    "structure_descriptor",
]
