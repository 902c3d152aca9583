"""The persistence surface of ``src/repro``: one writer, one reader, loop
state declared once.

Same AST style as ``test_env_surface.py``.  Three things are pinned:

* ``np.savez*`` / ``np.load`` / ``atomic_write(...)`` / ``zipfile`` appear in
  ``repro/atomicio.py`` and nowhere else — every other module persists
  through ``write_artifact`` / ``read_artifact``;
* ``core/io.py`` stays a set of declarations: no presence flags, version
  numbers, read-past keys or JSON-in-an-array members among its strings;
* every field ``KSChannel`` declares as carried survives a checkpoint round
  trip *and* a retry rewind.  The tests are parametrised over the
  declaration, so a field added later is covered without a new test.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.atoms.library import MOLECULE_LIBRARY
from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.core.io import load_scf_state, save_scf_state
from repro.core.scf import CARRIED_FIELDS, KSChannel
from repro.xc.lda import LDA

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
WRITER = SRC / "atomicio.py"

_NUMPY_IO = {"savez", "savez_compressed", "save", "load"}


def _persistence_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every raw container access in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _NUMPY_IO:
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == "atomic_write":
                found.append((node.lineno, "atomic_write("))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] + [getattr(node, "module", None)]
            if "zipfile" in modules:
                found.append((node.lineno, "zipfile"))
    return found


def test_scanner_sees_every_access_form():
    uses = _persistence_uses(ast.parse(
        "import zipfile\n"
        "from zipfile import BadZipFile\n"
        "import numpy as np\n"
        "np.savez(f, a=1)\n"
        "np.savez_compressed(f, a=1)\n"
        "d = np.load(p)\n"
        "with atomic_write(p) as f: pass\n"
        "with atomicio.atomic_write(p) as f: pass\n"
        "net.load(p); json.load(f)\n"
    ))
    assert [what for _, what in uses] == [
        "zipfile", "zipfile", "np.savez", "np.savez_compressed", "np.load",
        "atomic_write(", "atomic_write(",
    ]


def test_only_the_artifact_module_touches_a_container():
    stray = [
        f"{path.relative_to(REPO)}:{line} {what}"
        for path in sorted(SRC.rglob("*.py")) if path != WRITER
        for line, what in _persistence_uses(ast.parse(path.read_text()))
    ]
    assert stray == []
    assert {what for _, what in _persistence_uses(ast.parse(WRITER.read_text()))} >= {
        "np.savez_compressed", "np.load", "atomic_write(", "zipfile",
    }


def test_state_io_holds_no_format_bookkeeping():
    """Every string in ``core/io.py`` — keys, messages, docstrings."""
    tree = ast.parse((SRC / "core" / "io.py").read_text())
    strings = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    for banned in ("has_", "format_version", "v_prev", "_json"):
        assert [s for s in strings if banned in s] == []


# ---------------------------------------------------------------------------
# what a channel carries: declared once, honoured at every crossing
def _h2(**options) -> DFTCalculation:
    symbols, positions, *_ = MOLECULE_LIBRARY["H2"]
    config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
    return DFTCalculation(
        config, xc=LDA(), degree=2, cells_per_axis=2, options=SCFOptions(**options)
    )


@pytest.fixture(scope="module")
def interrupted(tmp_path_factory):
    """A two-iteration H2 run, its driver and the checkpoint it left."""
    path = str(tmp_path_factory.mktemp("carried") / "h2.ckpt")
    calc = _h2(max_iterations=2, checkpoint_path=path)
    calc.run()
    return calc.driver, path


def test_the_declaration_is_the_dataclass_fields_marked_carried():
    assert CARRIED_FIELDS == ("psi", "evals", "hpsi", "hpsi_v")
    assert not hasattr(KSChannel, "upper_bound")


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", CARRIED_FIELDS)
def test_carried_field_survives_a_checkpoint_round_trip(name, interrupted):
    driver, path = interrupted
    live = driver.channels[0]
    assert getattr(live, name) is not None  # the run populated it
    # written: the file holds the value the loop ended on, bit for bit ...
    assert _equal(load_scf_state(path)["channels"][0][name], getattr(live, name))
    # ... and restored: a fresh driver resuming from it carries the same value
    fresh = _h2(max_iterations=2).driver
    assert getattr(fresh.channels[0], name) is None
    fresh.run(resume_from=path)  # already at the iteration cap: restores only
    assert _equal(getattr(fresh.channels[0], name), getattr(live, name))


def test_a_state_with_retired_channel_keys_resumes(interrupted, tmp_path):
    """A file written while a channel still carried the Lanczos bound cache
    (a bound and the potential it was computed at) resumes: restoring reads
    the declared fields and nothing else, so the run continues exactly as
    from a file without them."""
    _, path = interrupted
    state = load_scf_state(path)
    for ch in state["channels"]:
        ch.update(bound_base=8.0, bound_v=np.zeros_like(ch["hpsi_v"]))
    older = str(tmp_path / "older.ckpt")
    save_scf_state(older, _h2().mesh, **state)
    runs = [_h2(max_iterations=3).run(resume_from=p) for p in (path, older)]
    assert runs[0].n_iterations == runs[1].n_iterations == 3
    assert runs[0].free_energy == runs[1].free_energy
    assert np.array_equal(runs[0].rho_spin, runs[1].rho_spin)


@pytest.mark.parametrize("name", CARRIED_FIELDS)
def test_carried_field_is_rewound_before_a_retry(name, interrupted, monkeypatch):
    driver, _ = interrupted
    channel = driver.channels[0]
    before = getattr(channel, name)
    seen = []

    def attempt(ch, v_eff):
        seen.append(getattr(ch, name))
        if len(seen) == 1:  # a failed attempt leaves the field half-updated
            setattr(ch, name, np.full(3, np.nan))
            raise RuntimeError("injected fault")

    monkeypatch.setattr(driver, "_solve_one_channel", attempt)
    driver._solve_channel_resilient(channel, v_eff=None)
    assert len(seen) == 2 and seen[1] is before


def test_a_converged_checkpoint_resumes_to_the_same_energy(tmp_path):
    """Resuming a converged run restores and evaluates only: the final energy
    pairs the eigenvalues with the potential the channels carry, so the
    resumed result is the uninterrupted one bit for bit."""
    path = str(tmp_path / "done.ckpt")
    done = _h2(checkpoint_path=path).run()
    assert done.converged
    again = _h2().run(resume_from=path)
    assert again.n_iterations == done.n_iterations
    assert again.energy == done.energy
    assert again.free_energy == done.free_energy
