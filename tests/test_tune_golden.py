"""Golden bitwise tests: tuned profiles never change SCF math.

The tuner's core contract (DESIGN.md sec 15) is that a tuned profile
changes the *schedule* — block partitioning, thread width — and never the
floating-point result.  Stored golden JSONs are only bit-reproducible on
the machine that wrote them, so every test here compares a *fresh* tuned
run against a *fresh* untuned run from the same session: the two must
agree bit for bit, to the last ulp, on every molecule in the library,
through the process-rank backend, and across a checkpoint/resume boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.pipeline import MOLECULE_LIBRARY
from repro.tune.profile import (
    TunedProfile,
    host_fingerprint,
    load_host_profile,
    save_profile,
)
from repro.xc.lda import LDA

#: schedule knobs distinct from every built-in default: B_f 16 (default
#: 64), split subspace block, two worker threads.
#: Both block sizes stay >= the library's largest nstates (8) so blocked
#: loops see a single block — partitioning is exact by construction.
TUNED_KNOBS = {
    "block_size": 16,
    "subspace_block_size": 32,
    "num_threads": 2,
}
SCF_DEGREE, SCF_CELLS, SCF_ITERS = 3, 3, 5


def _install_tuned_profile() -> TunedProfile:
    """Write the tuned profile at the hermetic default path (conftest
    points REPRO_TUNE_DIR at a per-test tmp dir)."""
    prof = TunedProfile(knobs=dict(TUNED_KNOBS), fingerprint=host_fingerprint())
    save_profile(prof)
    return prof


def _run(name, *, tuned, max_iterations=SCF_ITERS, resume_from=None, **opts):
    symbols, positions, *_ = MOLECULE_LIBRARY[name]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    calc = DFTCalculation(
        config,
        xc=LDA(),
        degree=SCF_DEGREE,
        cells_per_axis=SCF_CELLS,
        options=SCFOptions(
            max_iterations=max_iterations, autotune=tuned, **opts
        ),
    )
    with calc:
        res = calc.run(resume_from=resume_from)
    return calc, res


def _assert_bitwise_equal(tuned_res, plain_res):
    assert tuned_res.free_energy == plain_res.free_energy  # bit for bit
    assert tuned_res.energy == plain_res.energy
    assert tuned_res.fermi_level == plain_res.fermi_level
    assert tuned_res.n_iterations == plain_res.n_iterations
    for ev_t, ev_p in zip(tuned_res.eigenvalues, plain_res.eigenvalues):
        np.testing.assert_array_equal(np.asarray(ev_t), np.asarray(ev_p))
    np.testing.assert_array_equal(tuned_res.rho_spin, plain_res.rho_spin)


@pytest.mark.parametrize("molecule", sorted(MOLECULE_LIBRARY))
def test_tuned_profile_is_bitwise_neutral(molecule):
    _install_tuned_profile()
    tuned_calc, tuned_res = _run(molecule, tuned=True)
    _, plain_res = _run(molecule, tuned=False)
    # the comparison is non-vacuous: the tuned run really took the
    # profile's schedule, not the built-in defaults
    assert tuned_calc.options.block_size == TUNED_KNOBS["block_size"]
    assert tuned_calc.options.subspace_block == TUNED_KNOBS["subspace_block_size"]
    assert tuned_calc.options.num_threads == TUNED_KNOBS["num_threads"]
    _assert_bitwise_equal(tuned_res, plain_res)


def test_tuned_profile_is_bitwise_neutral_on_proc_backend():
    """Same contract through the fork/shared-memory rank backend at P=2."""
    _install_tuned_profile()
    backend = dict(backend="proc", nranks=2, max_iterations=4)
    _, tuned_res = _run("H2", tuned=True, **backend)
    _, plain_res = _run("H2", tuned=False, **backend)
    _assert_bitwise_equal(tuned_res, plain_res)


def test_tuned_checkpoint_resume_is_bitwise(tmp_path):
    """Kill a tuned run at iteration 3, resume under the same profile,
    and land bit-identical to both the uninterrupted tuned run and the
    uninterrupted *untuned* run."""
    _install_tuned_profile()
    assert load_host_profile() is not None
    ck = tmp_path / "tuned.ckpt"
    _, ref_tuned = _run("H2", tuned=True, max_iterations=6)
    _run("H2", tuned=True, max_iterations=3,
         checkpoint_path=ck, checkpoint_every=1)
    _, resumed = _run("H2", tuned=True, max_iterations=6, resume_from=ck)
    _assert_bitwise_equal(resumed, ref_tuned)
    _, ref_plain = _run("H2", tuned=False, max_iterations=6)
    _assert_bitwise_equal(resumed, ref_plain)
