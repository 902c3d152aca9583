"""Checkpoint / restart: persist ground states and mid-run loop state.

Production DFT runs at the paper's scale are restartable; this module
provides the laptop-scale equivalent at two granularities:

* **v1 (converged-state)** — :func:`save_checkpoint` /
  :func:`load_checkpoint` persist a converged ``SCFResult``;
  ``DFTCalculation.run(rho0=...)`` warm-starts a new SCF from the loaded
  density (typically converging in a couple of iterations).

* **v2 (mid-run)** — :func:`save_scf_state`, :func:`save_invdft_state` and
  :func:`save_mlxc_state` snapshot *all* loop-carried state of the three
  long-running drivers (SCF, inverse DFT, MLXC training) at an iteration
  boundary, so an interrupted run resumed via ``resume_from=`` reproduces
  the uninterrupted run **bit for bit**.  That contract dictates the
  contents: beyond the obvious density/wavefunctions it includes the
  Anderson mixer's history window, eigensolver bound caches, optimizer
  moments, and the FLOP ledger, because each of those feeds back into
  later arithmetic.  (The Poisson solve keeps no state between calls;
  older SCF files carry a ``v_prev`` potential that is read past.)

Every file is written atomically (:func:`repro.atomicio.atomic_write`), so
a run killed mid-write leaves the previous checkpoint intact, never a torn
one.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.atomicio import atomic_write

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "load_initial_rho",
    "save_seed_density",
    "save_scf_state",
    "load_scf_state",
    "save_invdft_state",
    "load_invdft_state",
    "save_mlxc_state",
    "load_mlxc_state",
]

_FORMAT_VERSION = 1
_STATE_FORMAT_VERSION = 2


def save_checkpoint(
    path: str, mesh, result, include_wavefunctions: bool = False
) -> None:
    """Write an ``SCFResult`` checkpoint for the given mesh.

    ``include_wavefunctions`` additionally stores every channel's orbitals
    (larger files; only needed for band-structure-style post-processing).
    """
    data = {
        "format_version": _FORMAT_VERSION,
        "nnodes": mesh.nnodes,
        "ndof": mesh.ndof,
        "degree": mesh.degree,
        "lengths": mesh.lengths,
        "pbc": np.array(mesh.pbc),
        "rho_spin": result.rho_spin,
        "v_tot": result.v_tot,
        "v_xc_spin": result.v_xc_spin,
        "fermi_level": result.fermi_level,
        "energy": result.energy,
        "free_energy": result.free_energy,
        "converged": result.converged,
        "n_channels": len(result.channels),
    }
    for i, (ch, ev, occ) in enumerate(
        zip(result.channels, result.eigenvalues, result.occupations)
    ):
        data[f"kfrac_{i}"] = np.asarray(ch.kfrac)
        data[f"weight_{i}"] = ch.weight
        data[f"spin_{i}"] = -1 if ch.spin is None else ch.spin
        data[f"eigenvalues_{i}"] = np.asarray(ev)
        data[f"occupations_{i}"] = np.asarray(occ)
        if include_wavefunctions:
            data[f"psi_{i}"] = ch.psi
    path = os.fspath(path)
    if not path.endswith(".npz"):  # np.savez's rule for bare paths
        path += ".npz"
    _atomic_savez(path, data)


def load_checkpoint(path: str, mesh=None) -> dict:
    """Load a checkpoint; validates mesh compatibility when one is given.

    Returns a dict with the stored arrays; ``rho_spin`` can be passed
    straight to ``DFTCalculation.run(rho0=...)``.
    """
    with np.load(path, allow_pickle=False) as f:
        data = {k: f[k] for k in f.files}
    if int(data["format_version"]) != _FORMAT_VERSION:
        raise ValueError("unsupported checkpoint format version")
    if mesh is not None:
        if int(data["nnodes"]) != mesh.nnodes or int(data["degree"]) != mesh.degree:
            raise ValueError(
                "checkpoint was written for a different mesh "
                f"(nnodes {int(data['nnodes'])} vs {mesh.nnodes})"
            )
        if not np.allclose(data["lengths"], mesh.lengths):
            raise ValueError("checkpoint domain lengths do not match the mesh")
    out = dict(data)
    out["n_channels"] = int(data["n_channels"])
    out["channels"] = [
        {
            "kfrac": tuple(data[f"kfrac_{i}"]),
            "weight": float(data[f"weight_{i}"]),
            "spin": None if int(data[f"spin_{i}"]) < 0 else int(data[f"spin_{i}"]),
            "eigenvalues": data[f"eigenvalues_{i}"],
            "occupations": data[f"occupations_{i}"],
            "psi": data.get(f"psi_{i}"),
        }
        for i in range(out["n_channels"])
    ]
    return out


def save_seed_density(
    path: str, mesh, rho_spin: np.ndarray, metadata: dict | None = None
) -> None:
    """Persist a bare spin density as a warm-start seed artifact.

    Far lighter than a full checkpoint (no wavefunctions, no mixer
    state): just ``rho_spin`` plus the mesh identity needed to validate
    a later :func:`load_initial_rho`.  The screening driver's seed store
    and the serve runners write these for cross-job density reuse.
    """
    rho_spin = np.asarray(rho_spin, dtype=float)
    if rho_spin.shape[0] != mesh.nnodes:
        raise ValueError(
            f"rho_spin has {rho_spin.shape[0]} nodes, mesh has {mesh.nnodes}"
        )
    data = {
        "format_version": _STATE_FORMAT_VERSION,
        "kind": "rho",
        "nnodes": mesh.nnodes,
        "ndof": mesh.ndof,
        "degree": mesh.degree,
        "lengths": mesh.lengths,
        "pbc": np.array(mesh.pbc),
        "rho_spin": rho_spin,
        "metadata_json": _pack_json(metadata or {}),
    }
    _atomic_savez(path, data)


def load_initial_rho(path: str, mesh) -> np.ndarray:
    """Extract a seed density from any checkpoint file for a fresh SCF.

    Accepts v1 converged-state checkpoints, v2 mid-run SCF state files
    and bare seed-density artifacts (:func:`save_seed_density`) — the
    stored ``rho_spin`` of any of them can seed a new solve via
    ``run(rho0=...)``.  Mesh compatibility is always validated (nnodes,
    degree, domain lengths), so a seed from the wrong discretization
    fails loudly instead of producing a silently wrong warm start.
    """
    with np.load(path, allow_pickle=False) as f:
        version = int(f["format_version"])
        kind = f["kind"].item() if "kind" in f.files else None
        if kind == "rho":
            data = {k: f[k] for k in ("nnodes", "degree", "lengths", "rho_spin")}
    if version == _STATE_FORMAT_VERSION and kind == "rho":
        if mesh is not None:
            if (
                int(data["nnodes"]) != mesh.nnodes
                or int(data["degree"]) != mesh.degree
            ):
                raise ValueError(
                    "seed density was written for a different mesh "
                    f"(nnodes {int(data['nnodes'])} vs {mesh.nnodes})"
                )
            if not np.allclose(data["lengths"], mesh.lengths):
                raise ValueError(
                    "seed density domain lengths do not match the mesh"
                )
        return np.asarray(data["rho_spin"], dtype=float)
    if version == _STATE_FORMAT_VERSION and kind == "scf":
        return np.asarray(load_scf_state(path, mesh)["rho_spin"], dtype=float)
    if version == _FORMAT_VERSION:
        return np.asarray(load_checkpoint(path, mesh)["rho_spin"], dtype=float)
    raise ValueError(
        f"checkpoint at {path!r} holds no SCF density "
        f"(format_version={version}, kind={kind!r})"
    )


# ---------------------------------------------------------------------------
# v2: mid-run loop state (bit-for-bit resume)
# ---------------------------------------------------------------------------


def _atomic_savez(path: str, data: dict) -> None:
    """Write ``data`` as a compressed npz at ``path`` atomically.

    ``np.savez`` appends ``.npz`` to bare string paths, so the archive is
    written through the open handle of :func:`repro.atomicio.atomic_write`
    instead.  A kill at any point leaves either the old checkpoint or the
    new one — never a truncated file.
    """
    with atomic_write(path) as f:
        np.savez_compressed(f, **data)


def _pack_json(obj) -> np.ndarray:
    """JSON-encode ``obj`` into a 0-d unicode array (npz-storable without
    pickle; numpy scalars coerced to floats)."""
    return np.array(json.dumps(obj, default=float))


def _unpack_json(arr):
    return json.loads(arr.item() if getattr(arr, "ndim", 1) == 0 else str(arr))


def _load_state(path: str, kind: str) -> dict:
    with np.load(path, allow_pickle=False) as f:
        data = {k: f[k] for k in f.files}
    if int(data["format_version"]) != _STATE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported mid-run checkpoint format version "
            f"{int(data['format_version'])} (expected {_STATE_FORMAT_VERSION})"
        )
    stored = data["kind"].item()
    if stored != kind:
        raise ValueError(
            f"checkpoint at {path!r} holds {stored!r} state, not {kind!r}"
        )
    return data


def save_scf_state(
    path: str,
    mesh,
    *,
    iteration: int,
    converged: bool,
    free_energy: float,
    rho_spin: np.ndarray,
    fermi_level: float,
    entropy: float,
    occupations: list,
    channels: list,
    mixer_rho: list,
    mixer_res: list,
    ledger_snapshot: dict | None = None,
    history: list | None = None,
    metadata: dict | None = None,
) -> None:
    """Snapshot the SCF loop at the end of ``iteration``.

    ``channels`` is a list of dicts with keys ``kfrac``, ``weight``,
    ``spin``, ``psi``, ``evals``, ``upper_bound``, ``bound_base``,
    ``bound_v`` and the fused-engine HX carry ``hpsi``/``hpsi_v`` (the
    driver builds these from its ``KSChannel`` objects).
    ``mixer_rho`` / ``mixer_res`` are the Anderson history window (oldest
    first; empty lists for a linear mixer), ``ledger_snapshot`` a
    ``FlopLedger.snapshot()``.
    Everything here is loop-carried state: omit any one piece and the
    resumed trajectory diverges from the uninterrupted run.
    """
    data: dict = {
        "format_version": _STATE_FORMAT_VERSION,
        "kind": "scf",
        "nnodes": mesh.nnodes,
        "ndof": mesh.ndof,
        "degree": mesh.degree,
        "lengths": mesh.lengths,
        "pbc": np.array(mesh.pbc),
        "iteration": int(iteration),
        "converged": bool(converged),
        "free_energy": float(free_energy),
        "fermi_level": float(fermi_level),
        "entropy": float(entropy),
        "rho_spin": rho_spin,
        "n_channels": len(channels),
        "history_json": _pack_json(history or []),
        "metadata_json": _pack_json(metadata or {}),
    }
    for i, (ch, occ) in enumerate(zip(channels, occupations)):
        if ch["psi"] is None or ch["evals"] is None:
            raise ValueError(
                "mid-run SCF checkpoints require solved channels "
                "(write them at iteration boundaries only)"
            )
        data[f"kfrac_{i}"] = np.asarray(ch["kfrac"], dtype=float)
        data[f"weight_{i}"] = float(ch["weight"])
        data[f"spin_{i}"] = -1 if ch["spin"] is None else int(ch["spin"])
        data[f"psi_{i}"] = ch["psi"]
        data[f"evals_{i}"] = np.asarray(ch["evals"])
        data[f"occ_{i}"] = np.asarray(occ)
        data[f"upper_bound_{i}"] = float(ch.get("upper_bound", 0.0))
        data[f"bound_base_{i}"] = float(ch.get("bound_base", 0.0))
        bv = ch.get("bound_v")
        data[f"has_bound_v_{i}"] = bv is not None
        if bv is not None:
            data[f"bound_v_{i}"] = bv
        # HX carry of the fused subspace engine (additive keys; files
        # written before the engine simply lack them and resume cold)
        hp = ch.get("hpsi")
        hpv = ch.get("hpsi_v")
        data[f"has_hpsi_{i}"] = hp is not None and hpv is not None
        if hp is not None and hpv is not None:
            data[f"hpsi_{i}"] = hp
            data[f"hpsi_v_{i}"] = hpv
    data["n_mix"] = len(mixer_rho)
    for j, (r, f_) in enumerate(zip(mixer_rho, mixer_res)):
        data[f"mix_rho_{j}"] = r
        data[f"mix_res_{j}"] = f_
    data["ledger_json"] = _pack_json(
        {k: list(v) for k, v in (ledger_snapshot or {}).items()}
    )
    _atomic_savez(path, data)


def load_scf_state(path: str, mesh=None) -> dict:
    """Load a mid-run SCF checkpoint (validates the mesh when given)."""
    data = _load_state(path, "scf")
    if mesh is not None:
        if int(data["nnodes"]) != mesh.nnodes or int(data["degree"]) != mesh.degree:
            raise ValueError(
                "SCF state checkpoint was written for a different mesh "
                f"(nnodes {int(data['nnodes'])} vs {mesh.nnodes})"
            )
        if not np.allclose(data["lengths"], mesh.lengths):
            raise ValueError("checkpoint domain lengths do not match the mesh")
    n_ch = int(data["n_channels"])
    channels = []
    occupations = []
    for i in range(n_ch):
        channels.append(
            {
                "kfrac": tuple(float(x) for x in data[f"kfrac_{i}"]),
                "weight": float(data[f"weight_{i}"]),
                "spin": None if int(data[f"spin_{i}"]) < 0 else int(data[f"spin_{i}"]),
                "psi": data[f"psi_{i}"],
                "evals": data[f"evals_{i}"],
                "upper_bound": float(data[f"upper_bound_{i}"]),
                "bound_base": float(data[f"bound_base_{i}"]),
                "bound_v": data[f"bound_v_{i}"] if bool(data[f"has_bound_v_{i}"]) else None,
                "hpsi": (
                    data[f"hpsi_{i}"]
                    if bool(data.get(f"has_hpsi_{i}", False))
                    else None
                ),
                "hpsi_v": (
                    data[f"hpsi_v_{i}"]
                    if bool(data.get(f"has_hpsi_{i}", False))
                    else None
                ),
            }
        )
        occupations.append(data[f"occ_{i}"])
    n_mix = int(data["n_mix"])
    ledger = {
        k: tuple(v) for k, v in _unpack_json(data["ledger_json"]).items()
    }
    return {
        "iteration": int(data["iteration"]),
        "converged": bool(data["converged"]),
        "free_energy": float(data["free_energy"]),
        "fermi_level": float(data["fermi_level"]),
        "entropy": float(data["entropy"]),
        "rho_spin": data["rho_spin"],
        "channels": channels,
        "occupations": occupations,
        "mixer_rho": [data[f"mix_rho_{j}"] for j in range(n_mix)],
        "mixer_res": [data[f"mix_res_{j}"] for j in range(n_mix)],
        "ledger_snapshot": ledger,
        "history": _unpack_json(data["history_json"]),
        "metadata": _unpack_json(data["metadata_json"]),
    }


def save_invdft_state(
    path: str,
    *,
    nnodes: int,
    iteration: int,
    v_xc: np.ndarray,
    v_backup: np.ndarray,
    err: float,
    err_prev: float,
    eta: float,
    psi: list,
    evals: list,
    history: list | None = None,
    metadata: dict | None = None,
) -> None:
    """Snapshot the inverse-DFT outer loop at the end of ``iteration``.

    ``psi`` / ``evals`` are the per-spin wavefunctions and eigenvalues
    (the eigensolver warm start); ``eta``, ``err_prev`` and the overshoot
    revert potential ``v_backup`` drive the adaptive step-size controller,
    so all three are loop-carried.
    """
    data: dict = {
        "format_version": _STATE_FORMAT_VERSION,
        "kind": "invdft",
        "nnodes": int(nnodes),
        "iteration": int(iteration),
        "v_xc": v_xc,
        "v_backup": v_backup,
        "err": float(err),
        "err_prev": float(err_prev),
        "eta": float(eta),
        "n_spin": len(psi),
        "history_json": _pack_json(history or []),
        "metadata_json": _pack_json(metadata or {}),
    }
    for s, (p, e) in enumerate(zip(psi, evals)):
        if p is None or e is None:
            raise ValueError("invDFT checkpoints require solved spin channels")
        data[f"psi_{s}"] = p
        data[f"evals_{s}"] = np.asarray(e)
    _atomic_savez(path, data)


def load_invdft_state(path: str, nnodes: int | None = None) -> dict:
    """Load a mid-run inverse-DFT checkpoint."""
    data = _load_state(path, "invdft")
    if nnodes is not None and int(data["nnodes"]) != int(nnodes):
        raise ValueError(
            "invDFT checkpoint was written for a different mesh "
            f"(nnodes {int(data['nnodes'])} vs {nnodes})"
        )
    n_spin = int(data["n_spin"])
    return {
        "iteration": int(data["iteration"]),
        "v_xc": data["v_xc"],
        "v_backup": data["v_backup"],
        "err": float(data["err"]),
        "err_prev": float(data["err_prev"]),
        "eta": float(data["eta"]),
        "psi": [data[f"psi_{s}"] for s in range(n_spin)],
        "evals": [data[f"evals_{s}"] for s in range(n_spin)],
        "history": _unpack_json(data["history_json"]),
        "metadata": _unpack_json(data["metadata_json"]),
    }


def save_mlxc_state(
    path: str,
    *,
    epoch: int,
    theta: np.ndarray,
    opt_state: dict,
    history: list | None = None,
    metadata: dict | None = None,
) -> None:
    """Snapshot MLXC training after ``epoch`` (post optimizer step).

    ``opt_state`` is the optimizer's ``state_dict()`` — for Adam the first
    and second moments plus the step counter, all of which shape every
    later parameter update.
    """
    data: dict = {
        "format_version": _STATE_FORMAT_VERSION,
        "kind": "mlxc",
        "epoch": int(epoch),
        "theta": theta,
        "opt_t": int(opt_state.get("t", 0)),
        "history_json": _pack_json(history or []),
        "metadata_json": _pack_json(metadata or {}),
    }
    for key in ("m", "v"):
        val = opt_state.get(key)
        data[f"has_opt_{key}"] = val is not None
        if val is not None:
            data[f"opt_{key}"] = val
    _atomic_savez(path, data)


def load_mlxc_state(path: str, n_params: int | None = None) -> dict:
    """Load an MLXC training checkpoint."""
    data = _load_state(path, "mlxc")
    theta = data["theta"]
    if n_params is not None and theta.size != int(n_params):
        raise ValueError(
            "MLXC checkpoint parameter count does not match the network "
            f"({theta.size} vs {n_params})"
        )
    opt_state = {
        "t": int(data["opt_t"]),
        "m": data["opt_m"] if bool(data["has_opt_m"]) else None,
        "v": data["opt_v"] if bool(data["has_opt_v"]) else None,
    }
    return {
        "epoch": int(data["epoch"]),
        "theta": theta,
        "opt_state": opt_state,
        "history": _unpack_json(data["history_json"]),
        "metadata": _unpack_json(data["metadata_json"]),
    }
