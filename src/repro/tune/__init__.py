"""Host identity for benchmark records: cpu count, platform, BLAS vendor.

There is no tuner here (DESIGN.md sec 15 says why).  The package name stays
because the frozen ``benchmarks/ledger/run.py`` stamps every record through
``from repro.tune import host_fingerprint`` — the same reason
``repro.core.scf`` keeps re-exporting ``rayleigh_ritz`` and
``lanczos_upper_bound``, and ``repro.invdft.inverse`` the three kernels its
eigensolve now reaches through ``repro.core.scf.chfes_step``.
"""

from __future__ import annotations

import os
import platform
from typing import Any

import numpy as np

__all__ = ["blas_vendor", "host_fingerprint"]


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
    """Identity of the hardware/software a measurement was taken on."""
    return {
        "cpu_count": int(os.cpu_count() or 1),
        "platform": f"{platform.system()}-{platform.machine()}",
        "blas": blas_vendor(),
    }
