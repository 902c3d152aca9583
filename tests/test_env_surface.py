"""The environment surface of ``src/repro`` is documented and read-only.

An AST scan finds every literal key the package reads from ``os.environ``
/ ``os.getenv`` and every write to the process environment.  The reads are
pinned, whatever their prefix, to three variables in three modules outside
``core/`` and ``serve/``; the ``REPRO_*`` ones must be exactly the variables
README.md documents (an undocumented knob, or a documented one nothing
reads, fails here); writes
must not exist at all — the environment is process-global state shared by
every thread of a ``repro.serve`` process, so a kernel path may never be
selected by mutating it.  The other configuration surface, the field names
of ``SCFOptions``, is pinned here too.
"""

from __future__ import annotations

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

_MUTATORS = {"pop", "setdefault", "update", "clear", "popitem"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` (or a bare imported ``environ``)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _literal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scan(tree: ast.AST) -> tuple[set[str], list[int]]:
    """(literal keys read, line numbers of environment writes)."""
    reads: set[str] = set()
    writes: list[int] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            fn = node.func
            key = _literal(node.args[0]) if node.args else None
            if _is_environ(fn.value):
                if fn.attr in _MUTATORS:
                    writes.append(node.lineno)
                elif fn.attr == "get" and key:
                    reads.add(key)
            elif fn.attr == "getenv" and key:
                reads.add(key)
            elif fn.attr in ("putenv", "unsetenv"):
                writes.append(node.lineno)
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                writes.append(node.lineno)
            elif (key := _literal(node.slice)) is not None:
                reads.add(key)
        elif isinstance(node, ast.Compare) and any(
            _is_environ(c) for c in node.comparators
        ):
            if (key := _literal(node.left)) is not None:
                reads.add(key)  # "REPRO_X" in os.environ
    return reads, writes


def _scan_package() -> tuple[set[str], list[str]]:
    reads: set[str] = set()
    writes: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        file_reads, file_writes = _scan(ast.parse(path.read_text()))
        reads |= file_reads
        writes += [f"{path.relative_to(REPO)}:{line}" for line in file_writes]
    return reads, writes


def test_scanner_sees_every_access_form():
    reads, writes = _scan(ast.parse(
        "import os\n"
        "a = os.environ.get('REPRO_A', '')\n"
        "b = os.getenv('REPRO_B')\n"
        "c = os.environ['REPRO_C']\n"
        "d = 'REPRO_D' in os.environ\n"
        "e = os.environ.get('HOME')\n"
        "os.environ['REPRO_E'] = '1'\n"
        "os.environ.pop('REPRO_F', None)\n"
        "os.environ.setdefault('REPRO_G', '1')\n"
        "del os.environ['REPRO_H']\n"
        "os.putenv('REPRO_I', '1')\n"
    ))
    assert reads == {"REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D", "HOME"}
    assert writes == [7, 8, 9, 10, 11]


def test_env_reads_equal_the_documented_variables():
    reads = {r for r in _scan_package()[0] if r.startswith("REPRO_")}
    documented = set(re.findall(r"\bREPRO_[A-Z0-9_]+\b", (REPO / "README.md").read_text()))
    assert reads == documented, (
        f"read but undocumented: {sorted(reads - documented)}; "
        f"documented but never read: {sorted(documented - reads)}"
    )


def test_env_reads_are_pinned():
    """Three variables, one module each: a new read of any key (``HOME``
    as much as ``REPRO_*``) shows up here as a reviewed diff, like a new
    ``SCFOptions`` field."""
    readers = {
        str(path.relative_to(SRC)): reads
        for path in SRC.rglob("*.py")
        if (reads := _scan(ast.parse(path.read_text()))[0])
    }
    assert readers == {
        "obs/tracer.py": {"REPRO_TRACE"},
        "resilience/faults.py": {"REPRO_FAULTS"},
        "tools/sanitize.py": {"REPRO_SANITIZE"},
    }


def test_package_never_writes_the_environment():
    _, writes = _scan_package()
    assert writes == []


def test_scf_options_fields_are_pinned():
    """Every ``SCFOptions`` field is a knob some caller sets; a new one
    shows up here as a reviewed diff."""
    from dataclasses import fields

    from repro.core import SCFOptions

    assert [f.name for f in fields(SCFOptions)] == [
        "max_iterations", "density_tol", "energy_tol", "temperature",
        "filter_passes", "block_size", "mixed_precision", "mixing_alpha",
        "poisson_tol", "verbose", "checkpoint_path",
        "checkpoint_every", "checkpoint_metadata", "initial_rho_path",
        "retry_policy", "backend", "nranks",
    ]
