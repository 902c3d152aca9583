"""Checkpoint / restart: persist ground states and mid-run loop state.

Production DFT runs at the paper's scale are restartable; this module is the
laptop-scale equivalent.  Every file is one artifact (:mod:`repro.atomicio`:
atomic, schema-tagged, digest-checked) whose tree is ``{"kind", "mesh",
"state"}`` — what the file is, the identity of the mesh it was written on,
and the writer's state tree.  Four kinds:

* ``result`` — a converged ``SCFResult`` (:func:`save_checkpoint`);
* ``scf`` / ``invdft`` / ``mlxc`` — *all* loop-carried state of a driver at an
  iteration boundary, so that ``resume_from=`` reproduces the uninterrupted
  run **bit for bit**: beyond density and wavefunctions, the mixer window,
  the eigensolver carries, the optimizer moments, the FLOP ledger — each
  feeds back into later arithmetic.  The *driver* declares what it carries;
  this module does not enumerate it.

A file that is missing, damaged, of another schema or kind, or from another
mesh is refused with :class:`repro.atomicio.ArtifactError`.  A file resumes
on the commit that wrote it: there is no reader for earlier formats.
"""

from __future__ import annotations

import os

import numpy as np

from repro.atomicio import ArtifactError, read_artifact, write_artifact

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "load_initial_rho",
    "save_scf_state",
    "load_scf_state",
    "save_invdft_state",
    "load_invdft_state",
    "save_mlxc_state",
    "load_mlxc_state",
]

STATE_SCHEMA = "repro-state/4"


def _mesh_identity(mesh) -> dict | None:
    """What makes nodal data written on one mesh meaningful on another."""
    if mesh is None:
        return None
    return {
        "nnodes": int(mesh.nnodes),
        "ndof": int(mesh.ndof),
        "degree": int(mesh.degree),
        "lengths": [float(x) for x in mesh.lengths],
        "pbc": [bool(p) for p in mesh.pbc],
    }


def _check_mesh(path: str, found: dict | None, want: dict | None) -> None:
    """Refuse a file whose mesh identity differs from ``want`` in any entry
    (counts exactly, domain lengths to rounding); ``None`` checks nothing."""
    for key, value in (want or {}).items():
        stored = (found or {}).get(key)
        if stored is None or not np.allclose(stored, value):
            raise ArtifactError(
                path, "foreign mesh",
                f"written for a different mesh: {key} {stored} vs {value}",
            )


def _save(path: str, kind: str, mesh: dict | None, state: dict) -> None:
    write_artifact(path, STATE_SCHEMA, {"kind": kind, "mesh": mesh, "state": state})


def _load(path: str, kinds: tuple[str, ...], mesh: dict | None) -> dict:
    body = read_artifact(path, STATE_SCHEMA)
    if body["kind"] not in kinds:
        raise ArtifactError(
            path, "wrong kind",
            f"holds {body['kind']!r} state, not {' / '.join(map(repr, kinds))}",
        )
    _check_mesh(path, body["mesh"], mesh)
    return body["state"]


def save_checkpoint(
    path: str, mesh, result, include_wavefunctions: bool = False
) -> None:
    """Write an ``SCFResult`` checkpoint for the given mesh.

    ``include_wavefunctions`` additionally stores every channel's orbitals
    (larger files; only needed for band-structure-style post-processing).
    """
    state = {
        "converged": result.converged,
        "energy": result.energy,
        "free_energy": result.free_energy,
        "fermi_level": result.fermi_level,
        "rho_spin": result.rho_spin,
        "v_tot": result.v_tot,
        "v_xc_spin": result.v_xc_spin,
        "channels": [
            {
                "kfrac": ch.kfrac,
                "weight": ch.weight,
                "spin": ch.spin,
                "eigenvalues": np.asarray(ev),
                "occupations": np.asarray(occ),
                "psi": ch.psi if include_wavefunctions else None,
            }
            for ch, ev, occ in zip(
                result.channels, result.eigenvalues, result.occupations
            )
        ],
    }
    path = os.fspath(path)
    if not path.endswith(".npz"):  # a bare path gains the archive suffix
        path += ".npz"
    _save(path, "result", _mesh_identity(mesh), state)


def load_checkpoint(path: str, mesh=None) -> dict:
    """Load a converged-result checkpoint (validates the mesh when given).

    Returns what :func:`save_checkpoint` stored plus ``n_channels``;
    ``rho_spin`` can be passed straight to ``DFTCalculation.run(rho0=...)``.
    """
    state = _load(path, ("result",), _mesh_identity(mesh))
    return {**state, "n_channels": len(state["channels"])}


def load_initial_rho(path: str, mesh) -> np.ndarray:
    """The stored spin density of an ``scf`` or ``result`` file, to seed a
    fresh SCF through ``run(rho0=...)``.

    The mesh is always validated, so a seed from the wrong discretization
    fails loudly instead of producing a silently wrong warm start.
    """
    state = _load(path, ("scf", "result"), _mesh_identity(mesh))
    return np.asarray(state["rho_spin"], dtype=float)


def save_scf_state(path: str, mesh, **state) -> None:
    """Snapshot the SCF loop at an iteration boundary.

    ``state`` is the tree ``SCFDriver._write_checkpoint`` builds from its loop
    state, every channel's carried fields, the mixer window and the FLOP
    ledger.  All of it is loop-carried: omit any one piece and the resumed
    trajectory diverges from the uninterrupted run.
    """
    _save(path, "scf", _mesh_identity(mesh), state)


def load_scf_state(path: str, mesh=None) -> dict:
    """Load a mid-run SCF checkpoint (validates the mesh when given)."""
    return _load(path, ("scf",), _mesh_identity(mesh))


def save_invdft_state(path: str, *, nnodes: int, **state) -> None:
    """Snapshot the inverse-DFT outer loop at the end of an iteration.

    ``state`` is ``InverseDFT``'s loop state: the potential, the step-size
    controller's ``eta`` / ``err_prev`` / overshoot revert potential, and the
    per-spin eigensolver warm start — all loop-carried.
    """
    _save(path, "invdft", {"nnodes": int(nnodes)}, state)


def load_invdft_state(path: str, nnodes: int | None = None) -> dict:
    """Load a mid-run inverse-DFT checkpoint."""
    want = None if nnodes is None else {"nnodes": int(nnodes)}
    return _load(path, ("invdft",), want)


def save_mlxc_state(path: str, **state) -> None:
    """Snapshot MLXC training after an epoch (post optimizer step).

    ``state`` is the trainer's: ``theta``, the optimizer's ``state_dict()``
    (for Adam both moments and the step counter, which shape every later
    update), the loss history.
    """
    _save(path, "mlxc", None, state)


def load_mlxc_state(path: str, n_params: int | None = None) -> dict:
    """Load an MLXC training checkpoint (for a network of ``n_params``)."""
    state = _load(path, ("mlxc",), None)
    if n_params is not None and state["theta"].size != int(n_params):
        raise ArtifactError(
            path, "wrong kind",
            f"holds {state['theta'].size} parameters, the network has {n_params}",
        )
    return state
