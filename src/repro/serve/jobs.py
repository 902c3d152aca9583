"""Job model: serializable, hashable request specs for the serve runtime.

Every request to the simulation service is a frozen dataclass spec.  Specs
serialize to a canonical JSON envelope (``{"schema", "kind", "params"}``
with sorted keys and tuples normalized to lists) and hash to a stable
SHA-256 **job key** — the content address used by the result cache, the
duplicate coalescer and the checkpoint store.  Two requests with the same
physics are the same job, byte for byte, across processes and sessions;
this extends the checksum discipline of the PR 1 model-artifact guard to
the request path.

Two closed spec kinds:

==========  ===========================================================
``scf``     ground-state SCF of a library molecule (sliceable: the
            scheduler may preempt it at checkpointed iteration
            boundaries and resume later, bit for bit)
``probe``   synthetic deterministic workload (seeded numpy iteration)
            for load generation and runtime benchmarks — exercises the
            queue/scheduler/cache machinery without solver cost
==========  ===========================================================

:data:`JOB_TYPES` maps each kind to its spec class; :func:`spec_from_dict`
rebuilds a spec from its envelope through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator, Mapping

from repro.atoms.library import MOLECULE_LIBRARY

__all__ = [
    "JOB_SPEC_SCHEMA",
    "JOB_TYPES",
    "JobSpec",
    "SCFJobSpec",
    "ProbeJobSpec",
    "canonical_json",
    "spec_from_dict",
]

#: schema tag of the serialized job envelope
JOB_SPEC_SCHEMA = "repro-serve-job/1"


def _normalize(value: Any) -> Any:
    """Tuples -> lists (recursively) so the JSON form is canonical."""
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in value.items()}
    return value


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return json.dumps(
        _normalize(obj), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


@dataclass(frozen=True)
class JobSpec:
    """Base class of all job specs (frozen => hashable, usable as keys).

    Subclasses declare their own fields (including ``ranks``, the number
    of virtual-cluster ranks the job occupies while running — the
    scheduler packs jobs onto a fixed rank budget) plus the class
    attributes ``kind`` and ``sliceable``.  ``sliceable`` marks kinds the
    scheduler may preempt at a checkpoint boundary and resume later.
    """

    kind: ClassVar[str] = ""
    sliceable: ClassVar[bool] = False

    def validate(self) -> None:
        """Raise ``ValueError`` on an ill-formed spec (override + super())."""
        ranks = getattr(self, "ranks", 1)
        if not isinstance(ranks, int) or ranks < 1:
            raise ValueError(f"{self.kind} spec needs ranks >= 1, got {ranks!r}")

    def to_dict(self) -> dict[str, Any]:
        """Canonical serialized envelope: ``{"schema", "kind", "params"}``."""
        params = {
            f.name: _normalize(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }
        return {"schema": JOB_SPEC_SCHEMA, "kind": self.kind, "params": params}

    def job_key(self) -> str:
        """Stable SHA-256 content address of this spec."""
        blob = canonical_json(self.to_dict()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def spec_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Rebuild a spec from its :meth:`JobSpec.to_dict` envelope.

    Round-trip guarantee: ``spec_from_dict(s.to_dict()) == s`` and the two
    share one job key.  Raises ``ValueError`` on an unknown schema or
    kind, or on parameters the spec class rejects.
    """
    schema = data.get("schema")
    if schema != JOB_SPEC_SCHEMA:
        raise ValueError(f"unsupported job spec schema {schema!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in JOB_TYPES:
        raise ValueError(f"unknown job kind {kind!r}")
    cls = JOB_TYPES[kind]
    params = data.get("params")
    if not isinstance(params, Mapping):
        raise ValueError("job spec envelope lacks a params mapping")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(params) - names)
    if unknown:
        raise ValueError(f"unknown {kind} spec parameters {unknown}")
    spec = cls(**params)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
_XC_CHOICES = ("lda", "pbe")


def _check_scf_params(spec: "SCFJobSpec") -> Iterator[str]:
    if spec.molecule not in MOLECULE_LIBRARY:
        yield f"unknown molecule {spec.molecule!r}"
    if spec.xc not in _XC_CHOICES:
        yield f"xc must be one of {_XC_CHOICES}"
    if spec.degree < 1 or spec.cells < 2:
        yield "mesh needs degree >= 1 and cells >= 2"


@dataclass(frozen=True)
class SCFJobSpec(JobSpec):
    """Ground-state SCF of a library molecule.

    The one sliceable kind: the runner caps ``max_iterations`` at the
    scheduler's slice boundary, checkpoints every iteration, and a
    preempted job resumes from its checkpoint bit for bit.
    """

    kind: ClassVar[str] = "scf"
    sliceable: ClassVar[bool] = True

    molecule: str = "H2"
    xc: str = "lda"
    degree: int = 3
    cells: int = 3
    padding: float = 6.0
    max_scf: int = 40
    ranks: int = 1

    def validate(self) -> None:
        super().validate()
        problems = list(_check_scf_params(self))
        if self.max_scf < 1:
            problems.append("max_scf must be >= 1")
        if problems:
            raise ValueError(f"invalid scf spec: {'; '.join(problems)}")


@dataclass(frozen=True)
class ProbeJobSpec(JobSpec):
    """Synthetic deterministic workload for load generation.

    ``size`` sets the matrix dimension, ``iters`` the number of
    ``tanh(A @ A / n)`` sweeps; the payload carries a SHA-256 checksum of
    the final matrix, so cache hits are verifiable bit for bit.
    """

    kind: ClassVar[str] = "probe"

    seed: int = 0
    size: int = 32
    iters: int = 4
    ranks: int = 1

    def validate(self) -> None:
        super().validate()
        if self.size < 1 or self.iters < 0:
            raise ValueError("probe spec needs size >= 1 and iters >= 0")


#: the spec class of each kind
JOB_TYPES: dict[str, type[JobSpec]] = {
    SCFJobSpec.kind: SCFJobSpec, ProbeJobSpec.kind: ProbeJobSpec,
}
