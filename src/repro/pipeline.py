"""End-to-end pipeline: QMB reference -> invDFT -> MLXC training data.

This is the paper's Fig. 2 data flow in one module:

1. a forward DFT solve provides an orthonormal orbital basis;
2. FCI in that basis gives the quantum-many-body density and energy
   (``rho_QMB``, the paper's training reference);
3. inverse DFT extracts the exact XC potential of ``rho_QMB``;
4. the (density, exact-v_xc, exact-E_xc) triple becomes an MLXC
   :class:`~repro.ml.training.TrainingSample`.

The default molecule set mirrors the paper's training data (H2, LiH
molecules, Li and N atoms) in the soft-pseudopotential model world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.atoms.library import MOLECULE_LIBRARY
from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.core.density import orbitals_to_nodes

# stays a module-level name: the ledger's hook table wraps
# ``repro.pipeline.compute_integrals`` through ``inspect.getattr_static``
from repro.qmb.integrals import compute_integrals
from repro.xc.lda import LDA

if TYPE_CHECKING:
    from repro.invdft.inverse import InverseDFT
    from repro.ml.training import TrainingSample
    from repro.xc.mlxc import MLXC

__all__ = [
    "MOLECULE_LIBRARY",
    "QMBReference",
    "qmb_reference",
    "invert_reference",
    "build_training_set",
    "train_mlxc",
]

#: the paper's training systems (its Ne analog is replaced by He to keep
#: the FCI determinant space laptop-sized; documented in DESIGN.md)
DEFAULT_TRAINING_SET = ("H2", "LiH", "Li", "N")


@dataclass
class QMBReference:
    """FCI reference for one molecule on its finite-element mesh."""

    name: str
    calc: DFTCalculation
    rho_qmb_spin: np.ndarray  #: (nnodes, 2)
    e_fci: float
    e_ks_seed: float  #: the LDA seed calculation's energy
    n_alpha: int
    n_beta: int


def qmb_reference(
    name: str,
    cells_per_axis: int = 4,
    degree: int = 4,
    padding: float = 8.0,
) -> QMBReference:
    """Run the forward-DFT + FCI stage for a library molecule."""
    # FCI runs in this stage only; an SCF that reads the molecule table never does
    from repro.qmb.fci import FCISolver, density_from_rdm

    symbols, positions, n_a, n_b, n_orb = MOLECULE_LIBRARY[name]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    calc = DFTCalculation(
        config, xc=LDA(), padding=padding, cells_per_axis=cells_per_axis,
        degree=degree, nstates=max(n_orb, n_a + 2),
        options=SCFOptions(max_iterations=60),
    )
    seed = calc.run()
    phi = orbitals_to_nodes(calc.mesh, seed.channels[0].psi)[:, :n_orb]
    ints = compute_integrals(calc.mesh, calc.config, phi)
    fci = FCISolver(ints, n_a, n_b).ground_state()
    if n_a == n_b:
        # an M_s = 0 spin eigenstate has zero spin density: the two RDMs
        # differ by FCI rounding only, and equal columns let invDFT solve
        # one spin channel (InverseDFT.run mirrors it)
        rho_up = rho_dn = density_from_rdm(
            phi, 0.5 * (fci.rdm1_alpha + fci.rdm1_beta)
        )
    else:
        rho_up = density_from_rdm(phi, fci.rdm1_alpha)
        rho_dn = density_from_rdm(phi, fci.rdm1_beta)
    return QMBReference(
        name=name,
        calc=calc,
        rho_qmb_spin=np.stack([rho_up, rho_dn], axis=1),
        e_fci=fci.energy,
        e_ks_seed=seed.energy,
        n_alpha=n_a,
        n_beta=n_b,
    )


def invert_reference(
    ref: QMBReference,
    max_iterations: int = 150,
    minres_tol: float = 1e-6,
    minres_maxiter: int = 150,
    eta: float = 2.0,
) -> tuple[TrainingSample, InverseDFT]:
    """Run invDFT on a QMB reference and package a training sample."""
    # invDFT and the sample assembly run in this stage only
    from repro.invdft import InverseDFT, exact_xc_energy
    from repro.ml.training import assemble_sample

    mesh = ref.calc.mesh
    inv = InverseDFT(
        mesh, ref.calc.config, ref.rho_qmb_spin,
        nstates=max(ref.n_alpha, ref.n_beta) + 3,
        minres_tol=minres_tol, minres_maxiter=minres_maxiter,
    )
    v0, _ = LDA().potential_and_energy(mesh, ref.rho_qmb_spin)
    out = inv.run(v0, eta=eta, max_iterations=max_iterations, tol=1e-12)
    exc = exact_xc_energy(inv, out, ref.e_fci)
    sample = assemble_sample(ref.name, mesh, ref.rho_qmb_spin, out.v_xc, exc)
    return sample, inv


def build_training_set(
    names: tuple[str, ...] = DEFAULT_TRAINING_SET,
    cells_per_axis: int = 4,
    degree: int = 4,
    invdft_iterations: int = 150,
    verbose: bool = False,
) -> list[TrainingSample]:
    """QMB + invDFT over a molecule set -> MLXC training samples."""
    samples = []
    for name in names:
        ref = qmb_reference(name, cells_per_axis=cells_per_axis, degree=degree)
        sample, _ = invert_reference(ref, max_iterations=invdft_iterations)
        if verbose:  # pragma: no cover
            print(
                f"[pipeline] {name}: E_FCI = {ref.e_fci:+.6f} Ha, "
                f"E_xc(exact) = {sample.exc_target:+.6f} Ha"
            )
        samples.append(sample)
    return samples


def train_mlxc(
    samples: list[TrainingSample],
    epochs: int = 300,
    lr: float = 2e-3,
    warm_start: str = "pbe",
    seed: int = 0,
    verbose: bool = False,
) -> tuple[MLXC, list[dict]]:
    """Train MLXC on invDFT samples (optionally PBE/LDA warm-started)."""
    # the network and its trainer run in this stage only
    from repro.ml.training import MLXCTrainer
    from repro.xc.mlxc import MLXC

    if warm_start == "pbe":
        from repro.xc.gga import PBE

        functional = MLXC.bootstrapped_from(PBE(), seed=seed, epochs=250)
    elif warm_start == "lda":
        functional = MLXC.bootstrapped_from(LDA(), seed=seed, epochs=250)
    else:
        functional = MLXC(seed=seed)
    trainer = MLXCTrainer(samples, functional)
    history = trainer.train(epochs=epochs, lr=lr, verbose=verbose)
    return functional, history
