"""Correctness tooling for the DFT-FE-MLXC reproduction.

Three complementary layers guard the numerical invariants the paper's
performance results depend on (mixed-precision block structure,
deterministic collectives, explicit dtypes, lock discipline):

* :mod:`repro.tools.lint` — ``reprolint``, a single-pass AST analyzer
  with a rule registry, per-rule severities and path scoping,
  ``# reprolint: disable=...`` suppressions and text/JSON output.  Run it
  as ``python -m repro.tools.lint src/`` or ``python -m repro lint``.
* :mod:`repro.tools.contracts` — ``@shape_contract`` / ``@dtype_contract``
  runtime decorators used in the hot kernels to pin down array shapes and
  to assert that FP32-blocked kernels never leak reduced precision into
  their FP64 results.
* :mod:`repro.tools.sanitize` — ``reprosan``, a runtime race sanitizer
  (``REPRO_SANITIZE=1``): write windows and buffer-ownership checks on
  the instrumented shared structures raise structured
  :class:`~repro.tools.sanitize.RaceReport`\\ s on overlapping unlocked
  writes; unarmed it costs one ``is None`` test per site.
"""

from __future__ import annotations

from .contracts import ContractViolation, dtype_contract, shape_contract

__all__ = ["ContractViolation", "dtype_contract", "shape_contract"]
