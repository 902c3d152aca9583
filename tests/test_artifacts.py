"""Persisted artifacts: one corruption matrix, one round-trip property.

Every file the package writes — SCF / invDFT / MLXC loop state, converged
results, MLP weights, cache entries — goes
through ``repro.atomicio.write_artifact`` and comes back through
``read_artifact``.  So the questions "what happens to a damaged file" and
"does everything survive a round trip" are asked once, here, of every kind:

* {missing, empty, truncated at 1/2, one byte flipped, garbage, re-encoded
  with a leaf changed, wrong schema tag, wrong kind, foreign mesh} x kind ->
  ``ArtifactError`` naming the path at the public reader, and the documented
  degrade at the caller that has one (``ResultCache.get`` -> a miss counted
  as corrupt);
* ``read_artifact(write_artifact(tree)) == tree`` leaf for leaf (dtype, shape
  and bytes) over generated trees;
* a write that fails leaves the previous file byte-identical and no temp
  file, for every kind;
* the CLI turns a refused file into one line and exit status 2.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import struct
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.atomicio import REASONS, ArtifactError, read_artifact, write_artifact
from repro.core.io import (
    STATE_SCHEMA,
    load_checkpoint,
    load_initial_rho,
    load_invdft_state,
    load_mlxc_state,
    load_scf_state,
    save_checkpoint,
    save_invdft_state,
    save_mlxc_state,
    save_scf_state,
)
from repro.fem.mesh import uniform_mesh
from repro.ml.nn import MLP
from repro.serve.cache import CACHE_SCHEMA, ResultCache
from repro.serve.jobs import ProbeJobSpec


@functools.cache
def _mesh(degree: int = 2):
    return uniform_mesh((4.0, 4.0, 4.0), (2, 2, 2), degree)


SPEC = ProbeJobSpec(seed=12)


# ---------------------------------------------------------------------------
# one valid artifact of every kind, and its public reader
def _write_scf(tmp: pathlib.Path, seed: int) -> pathlib.Path:
    mesh, rng = _mesh(), np.random.default_rng(seed)
    channel = {
        "kfrac": (0.0, 0.0, 0.0), "weight": 1.0, "spin": None,
        "psi": rng.standard_normal((mesh.nnodes, 3)), "evals": np.arange(3.0),
        "hpsi": None, "hpsi_v": None,
    }
    path = tmp / "scf.ckpt"
    save_scf_state(
        str(path), mesh, iteration=2, converged=False, free_energy=-1.0,
        rho_spin=rng.random((mesh.nnodes, 2)), fermi_level=0.1, entropy=0.0,
        occupations=[np.ones(3)], channels=[channel], mixer_rho=[], mixer_res=[],
        ledger_snapshot=None, history=[{"iteration": 1, "residual": 0.5}],
        metadata={},
    )
    return path


def _write_invdft(tmp: pathlib.Path, seed: int) -> pathlib.Path:
    n, rng = _mesh().nnodes, np.random.default_rng(seed)
    v = rng.standard_normal((n, 2))
    path = tmp / "inv.ckpt"
    save_invdft_state(
        str(path), nnodes=n, iteration=3, v_xc=v, v_backup=v + 1.0, err=0.25,
        err_prev=float("inf"), eta=2.0, psi=[np.eye(n)[:, :2]] * 2,
        evals=[np.arange(2.0)] * 2, history=[], metadata={},
    )
    return path


def _write_mlxc(tmp: pathlib.Path, seed: int) -> pathlib.Path:
    theta = np.random.default_rng(seed).standard_normal(17)
    path = tmp / "mlxc.ckpt"
    save_mlxc_state(
        str(path), epoch=4, theta=theta, history=[{"total": 1.0}], metadata={},
        opt_state={"m": theta * 2, "v": theta**2, "t": 5},
    )
    return path


def _write_result(tmp: pathlib.Path, seed: int) -> pathlib.Path:
    mesh, rng = _mesh(), np.random.default_rng(seed)
    channel = types.SimpleNamespace(
        kfrac=(0.0, 0.0, 0.0), weight=1.0, spin=None,
        psi=rng.standard_normal((mesh.nnodes, 2)),
    )
    result = types.SimpleNamespace(
        converged=True, energy=-1.5, free_energy=-1.6, fermi_level=-0.2,
        rho_spin=rng.random((mesh.nnodes, 2)), v_tot=rng.random(mesh.nnodes),
        v_xc_spin=rng.random((mesh.nnodes, 2)), channels=[channel],
        eigenvalues=[np.arange(2.0)], occupations=[np.ones(2)],
    )
    path = tmp / "result.npz"
    save_checkpoint(str(path), mesh, result, include_wavefunctions=True)
    return path


def _write_weights(tmp: pathlib.Path, seed: int) -> pathlib.Path:
    path = tmp / "net.npz"
    MLP((3, 4, 1), seed=seed).save(str(path))
    return path


def _write_cache(tmp: pathlib.Path, seed: int) -> pathlib.Path:
    return ResultCache(tmp / "cache").put(SPEC, {"kind": "probe", "trace": seed})


@dataclass(frozen=True)
class Kind:
    name: str
    schema: str
    write: Callable[[pathlib.Path, int], pathlib.Path]
    #: the public reader, asked for the mesh / size the file was written on
    read: Callable[[str], object]
    #: the same reader asked for another mesh (None: no mesh applies)
    read_foreign: Callable[[str], object] | None = None

    def __repr__(self) -> str:  # the pytest id
        return self.name


KINDS = [
    Kind("scf", STATE_SCHEMA, _write_scf,
         lambda p: load_scf_state(p, _mesh()), lambda p: load_scf_state(p, _mesh(3))),
    Kind("invdft", STATE_SCHEMA, _write_invdft,
         lambda p: load_invdft_state(p, nnodes=_mesh().nnodes),
         lambda p: load_invdft_state(p, nnodes=_mesh(3).nnodes)),
    Kind("mlxc", STATE_SCHEMA, _write_mlxc, lambda p: load_mlxc_state(p, n_params=17)),
    Kind("result", STATE_SCHEMA, _write_result,
         lambda p: load_checkpoint(p, _mesh()), lambda p: load_checkpoint(p, _mesh(3))),
    # the warm-start reader, over a result file
    Kind("rho", STATE_SCHEMA, _write_result,
         lambda p: load_initial_rho(p, _mesh()), lambda p: load_initial_rho(p, _mesh(3))),
    Kind("weights", MLP.WEIGHTS_SCHEMA, _write_weights, MLP.load),
    Kind("cache", CACHE_SCHEMA, _write_cache, lambda p: read_artifact(p, CACHE_SCHEMA)),
]
STATE_KINDS = [k for k in KINDS if k.schema == STATE_SCHEMA]
KIND = {k.name: k for k in KINDS}


# ---------------------------------------------------------------------------
# the damage: each takes the path of a valid file and returns the reason the
# reader must give (None: any reason — which layer notices is the container's
# business)
def _missing(path: pathlib.Path, kind: Kind) -> str | None:
    path.unlink()
    return "missing"


def _empty(path: pathlib.Path, kind: Kind) -> str | None:
    path.write_bytes(b"")
    return "truncated"


def _truncated(path: pathlib.Path, kind: Kind) -> str | None:
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    return "truncated"


def _flipped(path: pathlib.Path, kind: Kind) -> str | None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    path.write_bytes(bytes(raw))
    return None


def _garbage(path: pathlib.Path, kind: Kind) -> str | None:
    path.write_bytes(b"\x00neither a zip archive nor JSON text")
    return "unreadable"


def _tampered(path: pathlib.Path, kind: Kind) -> str | None:
    """A well-formed container, one leaf changed, the old digest kept."""
    raw = path.read_bytes()
    if raw[:2] == b"PK":
        with np.load(path) as f:
            members = {name: f[name] for name in f.files}
        victim = sorted(name for name in members if name != "header")[0]
        members[victim] = members[victim] + 1.0
        with open(path, "wb") as out:
            np.savez_compressed(out, **members)
    else:
        document = json.loads(raw)
        document["tree"]["tampered"] = True
        path.write_text(json.dumps(document))
    return "digest mismatch"


def _wrong_schema(path: pathlib.Path, kind: Kind) -> str | None:
    write_artifact(path, kind.schema + "-next", read_artifact(path, kind.schema))
    return "wrong schema"


DAMAGE = [_missing, _empty, _truncated, _flipped, _garbage, _tampered, _wrong_schema]


def _refusal(read: Callable[[str], object], path: pathlib.Path) -> ArtifactError:
    with pytest.raises(ArtifactError) as caught:
        read(str(path))
    err = caught.value
    assert err.path == str(path) and str(path) in str(err)
    assert err.reason in REASONS and err.reason in str(err)
    return err


@pytest.mark.parametrize("damage", DAMAGE, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_damaged_artifact_is_refused_at_the_reader(kind, damage, tmp_path):
    path = kind.write(tmp_path, 0)
    assert kind.read(str(path)) is not None  # sound before the damage
    reason = damage(path, kind)
    err = _refusal(kind.read, path)
    assert reason in (None, err.reason)
    if reason == "wrong schema":
        assert (err.expected, err.found) == (kind.schema, kind.schema + "-next")
        assert repr(err.found) in str(err) and repr(err.expected) in str(err)


@pytest.mark.parametrize("kind", STATE_KINDS, ids=repr)
def test_a_file_of_another_kind_is_refused(kind, tmp_path):
    """All four ``repro-state`` kinds share one schema; the kind is checked
    on top of it.  (For weights and cache entries another kind *is*
    another schema — the ``wrong_schema`` column above.)"""
    other = _write_mlxc if kind.name != "mlxc" else _write_result
    err = _refusal(kind.read, other(tmp_path, 0))
    assert err.reason == "wrong kind"


@pytest.mark.parametrize(
    "kind", [k for k in KINDS if k.read_foreign is not None], ids=repr
)
def test_a_file_from_another_mesh_is_refused(kind, tmp_path):
    err = _refusal(kind.read_foreign, kind.write(tmp_path, 0))
    assert err.reason == "foreign mesh" and "different mesh" in str(err)


def test_initial_rho_comes_from_any_file_that_holds_a_density(tmp_path):
    for write in (_write_scf, _write_result):
        path = write(tmp_path, 3)
        rho = load_initial_rho(str(path), _mesh())
        assert rho.shape == (_mesh().nnodes, 2) and rho.dtype == float


def test_mlxc_state_for_another_network_is_refused(tmp_path):
    path = _write_mlxc(tmp_path, 0)
    err = _refusal(lambda p: load_mlxc_state(p, n_params=18), path)
    assert err.reason == "wrong kind" and "17 parameters" in str(err)


@pytest.mark.parametrize("damage", DAMAGE, ids=lambda f: f.__name__.strip("_"))
def test_cache_counts_a_damaged_entry_as_corrupt_and_misses(damage, tmp_path):
    path = _write_cache(tmp_path, 0)
    assert ResultCache(tmp_path / "cache").get(SPEC) == {"kind": "probe", "trace": 0}
    reason = damage(path, KIND["cache"])
    cold = ResultCache(tmp_path / "cache")
    assert cold.get(SPEC) is None
    # an absent entry is an ordinary miss; anything else on disk is corruption
    assert (cold.stats.misses, cold.stats.corrupt) == (1, reason != "missing")


def test_every_flipped_byte_is_refused_or_harmless(tmp_path):
    """No single flipped byte yields different data: the reader refuses the
    file, or the flip fell on container bookkeeping nothing reads (zip
    timestamps and the like) and the tree comes back identical."""
    tree = {"x": np.arange(6.0).reshape(2, 3), "meta": {"inf": float("inf"), "s": "é"}}
    path = tmp_path / "small.art"
    write_artifact(path, "test/1", tree)
    raw = path.read_bytes()
    outcomes = set()
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 0x10
        path.write_bytes(bytes(flipped))
        try:
            assert _same(read_artifact(path, "test/1"), tree)
            outcomes.add("harmless")
        except ArtifactError as err:
            outcomes.add(err.reason)
    assert outcomes <= {"harmless", *REASONS} and "unreadable" in outcomes


# ---------------------------------------------------------------------------
# files written before the envelope existed: refused, found vs. expected named
def test_files_of_earlier_formats_are_refused_naming_found_and_expected(tmp_path):
    old_state = tmp_path / "old.ckpt"
    with open(old_state, "wb") as f:  # the pre-envelope layout: bare npz members
        np.savez_compressed(f, format_version=2, kind="scf", nnodes=27)
    old_weights = tmp_path / "old.npz"
    net = MLP((3, 4, 1), seed=0)
    np.savez(old_weights, layer_sizes=np.array(net.layer_sizes), alpha=net.alpha,
             params=net.get_params())
    for read, path, expected in [
        (load_scf_state, old_state, STATE_SCHEMA),
        (lambda p: load_initial_rho(p, _mesh()), old_state, STATE_SCHEMA),
        (MLP.load, old_weights, MLP.WEIGHTS_SCHEMA),
    ]:
        err = _refusal(read, path)
        assert (err.reason, err.found, err.expected) == ("wrong schema", None, expected)


# ---------------------------------------------------------------------------
# a failed write never tears, replaces or litters
def _torn_archive(f, **arrays):
    """An ``np.savez_compressed`` that dies with part of the archive written."""
    f.write(b"PK\x03\x04 half an archive")
    raise OSError("disk full")


def _disk_full(fd):
    raise OSError("disk full")


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_failed_write_leaves_previous_file_byte_identical(kind, tmp_path, monkeypatch):
    """Every writer goes through ``repro.atomicio.atomic_write``: one that
    raises mid-archive (npz containers) or with the body written but not yet
    synced (JSON containers) neither tears nor replaces the file it was about
    to overwrite, and leaves no temp file behind."""
    path = kind.write(tmp_path, 0)
    before = path.read_bytes()
    listing = sorted(p.name for p in path.parent.iterdir())
    if before[:2] == b"PK":
        monkeypatch.setattr(np, "savez_compressed", _torn_archive)
    else:
        monkeypatch.setattr(os, "fsync", _disk_full)
    with pytest.raises(OSError, match="disk full"):
        kind.write(tmp_path, 1)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == listing


def test_unpersistable_leaf_fails_before_any_file_is_touched(tmp_path):
    path = tmp_path / "a.art"
    write_artifact(path, "test/1", {"ok": 1})
    before = path.read_bytes()
    for bad in ({"x": object()}, {"x": np.array([object()])}, {1: "int key"},
                {"__ndarray__": "reserved"}, {"x": 1 + 2j}):
        with pytest.raises(TypeError):
            write_artifact(path, "test/1", bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.art"]


# ---------------------------------------------------------------------------
# the round-trip property
def _same(a, b) -> bool:
    """Leaf-for-leaf equality: dtype, shape and bytes for arrays, the bit
    pattern for floats (``-0.0`` is not ``0.0`` here), type and value else."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray) and a.dtype == b.dtype
            and a.shape == b.shape and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict) and a.keys() == b.keys()
            and all(_same(a[k], b[k]) for k in a)
        )
    if isinstance(a, list):
        return (
            isinstance(b, list) and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, float):
        return isinstance(b, float) and struct.pack("d", a) == struct.pack("d", b)
    return type(a) is type(b) and a == b


_ARRAYS = hnp.arrays(
    dtype=st.sampled_from(
        [np.float64, np.float32, np.int64, np.int8, np.bool_, np.complex128, "<U3"]
    ),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False)  # inf, -0.0 and subnormals included
    | _ARRAYS
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.text(max_size=6).filter(lambda k: k != "__ndarray__"), children, max_size=4
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(tree=_TREES)
@example(tree=None)
@example(tree=[])
@example(tree={"prev_energy": float("inf"), "err": float("-inf"), "z": -0.0})
@example(tree={"tiny": 5e-324, "name": "Löwdin ∑ 基底", "big": 2**80})
@example(tree={"mixer": [[np.zeros((2, 2)), np.ones(3)], []], "hpsi_v": None})
@example(tree=[np.array(1 + 2j), np.array(7), np.zeros((0, 3)), np.array("é")])
def test_read_returns_exactly_the_tree_that_was_written(tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("roundtrip") / "tree.art"
    write_artifact(path, "test/1", tree)
    assert _same(read_artifact(path, "test/1"), tree)


def test_numpy_scalars_and_tuples_come_back_as_python_scalars_and_lists(tmp_path):
    path = tmp_path / "t.art"
    write_artifact(path, "test/1", {
        "e": np.float64(-1.5), "n": np.int64(3), "ok": np.bool_(True), "k": (0.0, 0.5),
    })
    assert _same(
        read_artifact(path, "test/1"), {"e": -1.5, "n": 3, "ok": True, "k": [0.0, 0.5]}
    )


def test_container_follows_content(tmp_path):
    """Arrays -> one compressed npz whose scalar leaves share a single header
    member; no arrays -> indented JSON text a person can read."""
    write_artifact(tmp_path / "a", "test/1", {"x": np.ones(2), "y": np.zeros(1), "n": 1})
    with np.load(tmp_path / "a") as f:
        assert sorted(f.files) == ["a0", "a1", "header"]
    write_artifact(tmp_path / "b", "test/1", {"n": 1, "s": "text"})
    document = json.loads((tmp_path / "b").read_text())
    assert document["tree"] == {"n": 1, "s": "text"}
    assert set(document) == {"schema", "digest", "tree"}
    assert (tmp_path / "b").read_text().count("\n") > 3


# ---------------------------------------------------------------------------
# CLI: a bad file is a message, not a traceback
@pytest.fixture(scope="module")
def cli_checkpoint(tmp_path_factory) -> pathlib.Path:
    from repro.__main__ import main

    path = tmp_path_factory.mktemp("cli") / "h2.ckpt"
    assert main(["scf", "H2", "--degree", "2", "--cells", "2", "--max-scf", "2",
                 "--checkpoint", str(path)]) == 1  # two iterations: unconverged
    return path


_CLI_DAMAGE = [_missing, _truncated, _flipped, _garbage]


def _one_line(capsys, path: pathlib.Path) -> str:
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1 and str(path) in out and "Traceback" not in out
    return out


@pytest.mark.parametrize("damage", _CLI_DAMAGE, ids=lambda f: f.__name__.strip("_"))
def test_cli_resume_from_a_bad_file_prints_one_line_and_exits_2(
    damage, cli_checkpoint, tmp_path, capsys
):
    from repro.__main__ import main

    path = tmp_path / "bad.ckpt"
    path.write_bytes(cli_checkpoint.read_bytes())
    capsys.readouterr()
    damage(path, KIND["scf"])
    assert main(["resume", str(path)]) == 2
    assert _one_line(capsys, path).startswith("cannot resume: ")


def test_cli_resume_from_the_wrong_kind_of_file(tmp_path, capsys):
    from repro.__main__ import main

    path = _write_result(tmp_path, 0)
    assert main(["resume", str(path)]) == 2
    assert "wrong kind" in _one_line(capsys, path)


def test_cli_resume_without_cli_metadata_keeps_its_message(tmp_path, capsys):
    from repro.__main__ import main

    path = _write_scf(tmp_path, 0)  # verifies, but `scf --checkpoint` did not write it
    assert main(["resume", str(path)]) == 2
    assert "lacks CLI metadata" in capsys.readouterr().out


@pytest.mark.parametrize(
    "damage", _CLI_DAMAGE + [None], ids=lambda f: f.__name__.strip("_") if f else "wrong_kind"
)
def test_cli_initial_rho_from_a_bad_file_prints_one_line_and_exits_2(
    damage, cli_checkpoint, tmp_path, capsys
):
    from repro.__main__ import main

    if damage is None:
        path = _write_mlxc(tmp_path, 0)
    else:
        path = tmp_path / "bad.ckpt"
        path.write_bytes(cli_checkpoint.read_bytes())
        damage(path, KIND["scf"])
    capsys.readouterr()
    assert main(["scf", "H2", "--degree", "2", "--cells", "2", "--max-scf", "2",
                 "--initial-rho", str(path)]) == 2
    assert _one_line(capsys, path).startswith("cannot seed from --initial-rho: ")
