"""repro.tune — self-tuning kernel schedules (ROADMAP item 4).

Measure which kernel *schedule* is fastest on this host (wavefunction
block ``B_f``, channel thread width, subspace block), persist the choice
as a checksummed per-host profile, and let ``SCFOptions.resolve`` fill unset knobs from it — explicit user values
always win, ``REPRO_TUNE=0`` kills the pickup, and every tuned
configuration is bit-identical in SCF energies to the fixed defaults.

Profile plumbing (stdlib-only) imports eagerly from
:mod:`repro.tune.profile`; the sweep machinery is lazy so that
``repro.core`` can import the profile loader without a circular import
through :mod:`repro.tune.sweep` (which itself builds meshes/operators).
"""

from __future__ import annotations

from .profile import (
    PROFILE_SCHEMA,
    TUNABLE_KNOBS,
    ProfileError,
    TunedProfile,
    blas_vendor,
    default_profile_path,
    fingerprint_digest,
    host_fingerprint,
    load_host_profile,
    load_profile,
    profile_dir,
    save_profile,
    tuning_enabled,
)

_SWEEP_NAMES = (
    "SweepConfig",
    "SweepResult",
    "autotune",
    "best_candidate",
    "pick_modeled",
    "run_sweep",
)

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
    *_SWEEP_NAMES,
]


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module 'repro.tune' has no attribute {name!r}")
