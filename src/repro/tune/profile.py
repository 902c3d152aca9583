"""Per-host tuned-kernel profiles: one verified artifact per host.

The autotuner (:mod:`repro.tune.sweep`) measures which kernel *schedule* —
wavefunction block ``B_f``, channel thread count, subspace block — is
fastest on this host and persists the choice as a JSON artifact (schema
``repro-tune-profile/2``).  :meth:`repro.core.scf.SCFOptions.resolve`
fills any knob the user left unset from the profile; explicit user values
always win, and ``REPRO_TUNE=0`` disables the pickup entirely (the kill
switch is checked *before* any filesystem access, so a disabled run performs
no profile I/O at all).

What the store guarantees:

* **atomic, verified files** — :func:`repro.atomicio.write_artifact` /
  :func:`~repro.atomicio.read_artifact`: a crashed tuner cannot leave a torn
  profile, and a tampered, truncated or older-schema file is refused
  (:class:`~repro.atomicio.ArtifactError`), which :func:`load_host_profile`
  turns into "no profile" — it never crashes the caller;
* **host fingerprinting** — cpu count + platform + BLAS vendor.  Profiles
  are stored under a fingerprint-digest filename and a loaded profile whose
  recorded fingerprint differs from the current host is ignored, so a
  profile baked on one machine cannot mis-schedule another.

Profiles only ever change the *schedule* (loop partitioning, thread
fan-out), never the math: every knob a profile may set has a
bitwise-equivalence guarantee (see DESIGN.md sec 15), so tuned and untuned
runs produce identical SCF energies.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.atomicio import read_artifact, write_artifact

__all__ = [
    "PROFILE_SCHEMA",
    "TUNABLE_KNOBS",
    "ProfileError",
    "TunedProfile",
    "blas_vendor",
    "default_profile_path",
    "fingerprint_digest",
    "host_fingerprint",
    "load_host_profile",
    "load_profile",
    "profile_dir",
    "save_profile",
    "tuning_enabled",
]

PROFILE_SCHEMA = "repro-tune-profile/2"

#: the schedule knobs a profile may set, in canonical order.  Each one is
#: bitwise-neutral by construction (num_threads) or by the sweep's
#: candidate floor (block sizes; see DESIGN.md sec 15).
TUNABLE_KNOBS = (
    "block_size",
    "subspace_block_size",
    "num_threads",
)


class ProfileError(ValueError):
    """A profile names an unknown knob or gives one a value it cannot take."""


# ---------------------------------------------------------------------------
# host identity
def blas_vendor() -> str:
    """Short BLAS vendor string from numpy's build configuration."""
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        info = None
    if isinstance(info, dict):
        dep = info.get("Build Dependencies", {}).get("blas", {})
        name = dep.get("name")
        if name:
            return str(name)
    return "unknown"


def host_fingerprint() -> dict[str, Any]:
    """Identity of the hardware/software the measured schedule is valid on."""
    return {
        "cpu_count": int(os.cpu_count() or 1),
        "platform": f"{platform.system()}-{platform.machine()}",
        "blas": blas_vendor(),
    }


def fingerprint_digest(fingerprint: dict[str, Any]) -> str:
    """Stable short digest of a fingerprint (the profile filename key)."""
    blob = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# the profile object
def _validate_knobs(knobs: dict[str, Any]) -> None:
    for name, value in knobs.items():
        if name not in TUNABLE_KNOBS:
            raise ProfileError(f"unknown tunable knob {name!r}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ProfileError(f"knob {name}={value!r} must be an int >= 1")


@dataclass(frozen=True)
class TunedProfile:
    """One host's measured kernel schedule plus its provenance."""

    knobs: dict[str, Any]
    fingerprint: dict[str, Any]
    seed: int = 0
    #: measured sweep tables (per-bucket seconds per candidate) — kept for
    #: `repro info` reporting and the tuned>=default bench assertions
    sweep: dict[str, Any] = field(default_factory=dict)
    #: modeled picks on the virtual cluster (nodes, ModelOptions.block_size)
    model: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _validate_knobs(self.knobs)


# ---------------------------------------------------------------------------
# the store
def profile_dir() -> pathlib.Path:
    """Profile directory: ``REPRO_TUNE_DIR`` or ``~/.cache/repro/tune``."""
    env = os.environ.get("REPRO_TUNE_DIR", "").strip()
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "tune"


def default_profile_path(fingerprint: dict[str, Any] | None = None) -> pathlib.Path:
    """Fingerprint-addressed path of this host's profile."""
    fp = fingerprint if fingerprint is not None else host_fingerprint()
    return profile_dir() / f"profile-{fingerprint_digest(fp)}.json"


def save_profile(
    profile: TunedProfile, path: str | pathlib.Path | None = None
) -> pathlib.Path:
    """Atomically persist ``profile`` (default: its fingerprint-addressed path)."""
    target = (
        pathlib.Path(path)
        if path is not None
        else default_profile_path(profile.fingerprint)
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    write_artifact(target, PROFILE_SCHEMA, asdict(profile))
    return target


def load_profile(path: str | pathlib.Path) -> TunedProfile:
    """Load and verify one profile file.

    A file the reader refuses raises :class:`repro.atomicio.ArtifactError`; a
    verified one whose knobs this version does not know, :class:`ProfileError`.
    """
    return TunedProfile(**read_artifact(path, PROFILE_SCHEMA))


# ---------------------------------------------------------------------------
# the default pickup
def tuning_enabled() -> bool:
    """``REPRO_TUNE=0`` (or false/off/no) disables profile pickup."""
    flag = os.environ.get("REPRO_TUNE", "").strip().lower()
    return flag not in ("0", "false", "off", "no")


def load_host_profile(
    path: str | pathlib.Path | None = None,
) -> TunedProfile | None:
    """This host's tuned profile, or None.

    None is returned — never an exception — when tuning is disabled, the
    file is absent, fails verification, or was recorded on a different
    host.  The kill switch is checked first: with ``REPRO_TUNE=0`` no
    path is computed and no file is touched.
    """
    if not tuning_enabled():
        return None
    target = pathlib.Path(path) if path is not None else default_profile_path()
    try:
        prof = load_profile(target)
    except ValueError:  # refused by the reader, or knobs this version lacks
        return None
    return prof if prof.fingerprint == host_fingerprint() else None
