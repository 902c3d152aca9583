"""repro.tune — self-tuning kernel schedules (ROADMAP item 4).

Measure which kernel *schedule* is fastest on this host (wavefunction
block ``B_f``, channel thread width, subspace block), persist the choice
as a checksummed per-host profile, and let ``SCFOptions.resolve`` fill unset knobs from it — explicit user values
always win, ``REPRO_TUNE=0`` kills the pickup, and every tuned
configuration is bit-identical in SCF energies to the fixed defaults.

Both halves load on first use: the profile plumbing
(:mod:`repro.tune.profile`, stdlib-only) when ``repro.core`` asks for the
host profile, the sweep machinery (:mod:`repro.tune.sweep`, which itself
builds meshes and operators) only when something tunes.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "profile": (
            "PROFILE_SCHEMA", "ProfileError", "TUNABLE_KNOBS", "TunedProfile",
            "blas_vendor", "default_profile_path", "fingerprint_digest",
            "host_fingerprint", "load_host_profile", "load_profile", "profile_dir",
            "save_profile", "tuning_enabled",
        ),
        "sweep": (
            "SweepConfig", "SweepResult", "autotune", "best_candidate", "pick_modeled",
            "run_sweep",
        ),
    },
)
