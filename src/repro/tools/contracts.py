"""Runtime shape/dtype contracts for the hot numerical kernels.

The paper's mixed-precision kernels (CholGS, Rayleigh-Ritz, FP32 halo
exchange) downcast *internally* but must never leak reduced precision into
their results, and their blocked GEMM structure assumes specific operand
shapes.  These decorators turn those implicit invariants into cheap runtime
assertions:

.. code-block:: python

    @shape_contract(X=("n", "nvec"), Q=("nvec", "k"), returns=("n", "k"))
    @dtype_contract(X="inexact", preserves="X")
    def batched_rotate(X, Q, ...):
        ...

``shape_contract`` binds dimension names across arguments (every occurrence
of ``"n"`` must agree) and optionally checks the return value; integer
entries pin a dimension exactly and ``None`` entries match anything.
``dtype_contract`` checks argument dtype *kinds* (``"floating"``,
``"complexfloating"``, ``"inexact"``, ``"integer"``) and, via
``preserves="argname"``, asserts the result dtype equals that argument's
dtype — the no-FP32-leak invariant.

Checks cost a few attribute lookups per call (negligible next to the GEMMs
they guard) and are always on.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, TypeVar

import numpy as np

__all__ = ["ContractViolation", "shape_contract", "dtype_contract"]

F = TypeVar("F", bound=Callable[..., Any])

#: dtype-kind names accepted by :func:`dtype_contract`
_KINDS: dict[str, type] = {
    "floating": np.floating,
    "complexfloating": np.complexfloating,
    "inexact": np.inexact,
    "integer": np.integer,
    "number": np.number,
}

class ContractViolation(TypeError):
    """An array argument or result broke a declared shape/dtype contract."""


def _binder(func: Callable[..., Any]) -> Callable[[tuple, dict], dict[str, Any]]:
    """Precompute the positional parameter names so per-call binding is a
    ``zip`` (``Signature.bind_partial`` costs more than the small subspace
    GEMMs the checks guard).  Only arguments the caller passed are bound;
    a call the signature rejects fails in ``func`` itself."""
    names = [
        p.name
        for p in inspect.signature(func).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]

    def bind(args: tuple, kwargs: dict) -> dict[str, Any]:
        values = dict(zip(names, args))
        values.update(kwargs)
        return values

    return bind


def _check_shape(
    fname: str, argname: str, value: Any, spec: tuple, dims: dict[str, int]
) -> None:
    shape = getattr(value, "shape", None)
    if shape is None:
        raise ContractViolation(
            f"{fname}: argument {argname!r} has no .shape (got {type(value).__name__})"
        )
    if len(shape) != len(spec):
        raise ContractViolation(
            f"{fname}: {argname} must be {len(spec)}-D, got shape {shape}"
        )
    for axis, (entry, size) in enumerate(zip(spec, shape)):
        if entry is None:
            continue
        if isinstance(entry, int):
            if size != entry:
                raise ContractViolation(
                    f"{fname}: {argname}.shape[{axis}] must be {entry}, "
                    f"got {size} (shape {shape})"
                )
            continue
        seen = dims.setdefault(entry, size)
        if seen != size:
            raise ContractViolation(
                f"{fname}: dimension {entry!r} is inconsistent — "
                f"{argname}.shape[{axis}] = {size} but {entry} = {seen} earlier"
            )


def shape_contract(*, returns: tuple | None = None, **arg_specs: tuple) -> Callable[[F], F]:
    """Assert array-argument shapes, binding named dimensions across them.

    Each keyword maps an argument name to a tuple whose entries are
    dimension names (``str``, bound consistently across all specs), exact
    sizes (``int``) or ``None`` (unchecked).  An argument passed as
    ``None`` (an optional array left out, e.g. ``batched_gram``'s ``Y``) is
    not checked.  ``returns=`` checks the return value against the
    dimensions bound by the inputs.
    """

    def deco(func: F) -> F:
        fname = func.__qualname__
        bind = _binder(func)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            dims: dict[str, int] = {}
            values = bind(args, kwargs)
            for argname, spec in arg_specs.items():
                if values.get(argname) is not None:
                    _check_shape(fname, argname, values[argname], spec, dims)
            out = func(*args, **kwargs)
            if returns is not None:
                _check_shape(fname, "return value", out, returns, dims)
            return out

        return wrapper  # type: ignore[return-value]

    return deco


def dtype_contract(
    *, preserves: str | None = None, **arg_kinds: str
) -> Callable[[F], F]:
    """Assert argument dtype kinds and (optionally) result-dtype preservation.

    ``preserves="X"`` asserts ``result.dtype == X.dtype`` — the invariant
    that a mixed-precision kernel's internal FP32 blocks never leak into
    its FP64 output.
    """
    for kind in arg_kinds.values():
        if kind not in _KINDS:
            raise ValueError(
                f"unknown dtype kind {kind!r}; expected one of {sorted(_KINDS)}"
            )

    def deco(func: F) -> F:
        fname = func.__qualname__
        bind = _binder(func)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            values = bind(args, kwargs)
            for argname, kind in arg_kinds.items():
                if argname not in values:
                    continue
                dt = getattr(values[argname], "dtype", None)
                if dt is None or not np.issubdtype(dt, _KINDS[kind]):
                    raise ContractViolation(
                        f"{fname}: {argname} must have {kind} dtype, got "
                        f"{dt if dt is not None else type(values[argname]).__name__}"
                    )
            out = func(*args, **kwargs)
            if preserves is not None and preserves in values:
                want = values[preserves].dtype
                got = getattr(out, "dtype", None)
                if got != want:
                    raise ContractViolation(
                        f"{fname}: result dtype {got} does not preserve "
                        f"{preserves}.dtype = {want} (reduced precision leaked?)"
                    )
            return out

        return wrapper  # type: ignore[return-value]

    return deco
