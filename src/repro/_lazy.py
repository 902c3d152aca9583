"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that imports its submodules to re-export their names
makes ``import repro.hpc.flops`` pay for the whole of ``repro.hpc``.  With::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {"flops": ("FlopLedger",)})

``from repro.hpc import FlopLedger``, ``dir(repro.hpc)``, ``__all__`` and
``from repro.hpc import *`` read as before, and a submodule loads only when
it is imported or one of its names is first asked for.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose ``globals()``
    is ``namespace`` and whose public names are ``table``'s ``{submodule: names}``."""
    package = namespace["__name__"]
    owner = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # the import statement's own entry point, so ``-X importtime`` lists the load
        module = __import__(f"{package}.{owner[name]}", fromlist=[name])
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted(owner.keys() | namespace.keys())

    return __getattr__, __dir__, sorted(owner)
