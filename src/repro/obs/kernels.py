"""Span naming convention: the paper's Table 3 kernel labels.

Every instrumented region of the pipeline uses one of these names, so a
reproscope trace of a real SCF run lines up — label for label — with the
paper's per-SCF kernel breakdown *and* with the modeled
:class:`~repro.hpc.perfmodel.KernelTime` rows.  The convention:

========  ============================================================
label     region
========  ============================================================
EP        electrostatic (Poisson) solve for ``rho - rho_core``
DH        effective-potential / Hamiltonian update (XC evaluation)
ChFES     one Chebyshev-filtered eigensolve step (parent of CF/CholGS/RR)
Lanczos   spectral-bound estimation inside ChFES
CF        Chebyshev filter application (blocked cell-level GEMMs)
CholGS-S  blocked overlap ``X^H X``
CholGS-CI Cholesky factorization + triangular inverse
CholGS-O  subspace rotation ``X L^{-H}``
RR-P      projected Hamiltonian ``X^H (H X)``
RR-D      dense diagonalization
RR-SR     subspace rotation ``X Q``
DC        density computation from occupied orbitals
Occ       Fermi-level search / occupation update
Mix       Anderson/Kerker density mixing (paper's "Others")
XC        one ``XCFunctional.evaluate`` (attributes: ``points``, and the
          ``live`` ones its derivative step ran on); no Table 3 label
========  ============================================================

Non-SCF workloads reuse the scheme with their own parents:
``invDFT-iteration`` (children ``ChFES``, ``MINRES``, ...), ``MLXC-train``
(children ``MLXC-epoch``), ``Poisson-CG`` under ``EP``.
"""

from __future__ import annotations

__all__ = [
    "CHFES_CHILDREN",
    "PAPER_KERNELS",
    "SCF_ITERATION",
    "TABLE3_ORDER",
    "paper_label",
]

#: root span of one SCF step (``iteration`` attribute carries the index)
SCF_ITERATION = "SCF-iteration"

#: children charged inside one ChFES eigensolve, in execution order
CHFES_CHILDREN = (
    "Lanczos", "CF", "CholGS-S", "CholGS-CI", "CholGS-O",
    "RR-P", "RR-D", "RR-SR",
)

#: the flat Table 3 row order of the paper
TABLE3_ORDER = (
    "CF", "CholGS-S", "CholGS-CI", "CholGS-O",
    "RR-P", "RR-D", "RR-SR", "DC", "EP", "DH", "Others",
)

#: every span name with a direct Table 3 counterpart
PAPER_KERNELS = frozenset(TABLE3_ORDER) - {"Others"}

#: measured span names folded into the paper's "Others"/overhead bucket
#: (CholGS-QR is the metered ill-conditioned-cold-start rescue, not a
#: Table 3 kernel)
_OTHERS = frozenset({"Occ", "Mix", "Lanczos", "Energy", "CholGS-QR"})


def paper_label(span_name: str) -> str | None:
    """Map a span name to its Table 3 label (None for structural spans).

    ``DH+EP+Others`` in the paper's tables is split here into the three
    measured pieces; callers comparing against the aggregate row should
    sum ``EP`` + ``DH`` + ``Others``.
    """
    if span_name in PAPER_KERNELS:
        return span_name
    if span_name in _OTHERS:
        return "Others"
    return None
