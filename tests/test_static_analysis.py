"""Repo-wide static-analysis gate and runtime-contract unit tests.

The linchpin test here is the self-check: ``reprolint`` must report zero
findings over the package source, benchmarks and examples (the test tree
is excluded on purpose — its fixtures *are* violations).  R001 exempts
the single-cast helper ``repro/precision.py`` by path; the CholGS/RR
engine's four FP32 mirror calls (``repro/core/subspace.py``) carry
``# reprolint: disable=R001`` pragmas, and any other intentional downcast
would need one too — the pinned census below counts them.

ruff/mypy gates run only where those tools are installed; the repo keeps
their configuration in ``pyproject.toml`` so external CI can enforce
them even when this container cannot.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.tools.contracts import ContractViolation, dtype_contract, shape_contract
from repro.tools.lint import lint_paths

REPO = pathlib.Path(__file__).resolve().parent.parent
LINT_TARGETS = [REPO / "src", REPO / "benchmarks", REPO / "examples"]
FIXTURES = REPO / "tests" / "fixtures" / "reprolint"


# ----- self-check: the repo is reprolint-clean ------------------------------
def test_repo_is_reprolint_clean():
    findings = lint_paths(LINT_TARGETS)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_module_entrypoint_exit_codes():
    """``python -m repro.tools.lint`` under a bare ``PYTHONPATH``: 0 on a
    clean file, 1 on a violating one (``src/`` itself is linted in-process
    above)."""
    for name, code in (("r001_clean.py", 0), ("r001_bad.py", 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.lint", str(FIXTURES / name)],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == code, proc.stdout + proc.stderr


def test_repro_cli_lint_subcommand(capsys):
    from repro.__main__ import main

    assert main(["lint", str(FIXTURES / "r001_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "R001" in out


# ----- runtime contracts ----------------------------------------------------
def test_shape_contract_accepts_and_binds_named_dims():
    @shape_contract(a=("n", "m"), b=("m",), returns=("n",))
    def matvec(a, b):
        return a @ b

    out = matvec(np.ones((3, 4)), np.ones(4))
    assert out.shape == (3,)


def test_shape_contract_rejects_inconsistent_dims():
    @shape_contract(a=("n", "m"), b=("m",))
    def matvec(a, b):
        return a @ b

    with pytest.raises(ContractViolation, match="m"):
        matvec(np.ones((3, 4)), np.ones(5))


def test_shape_contract_rejects_wrong_rank_and_fixed_dim():
    @shape_contract(x=("n", 3))
    def f(x):
        return x

    with pytest.raises(ContractViolation):
        f(np.ones(3))
    with pytest.raises(ContractViolation):
        f(np.ones((4, 2)))
    assert f(np.ones((4, 3))).shape == (4, 3)


def test_shape_contract_skips_an_optional_array_passed_as_none():
    @shape_contract(x=("n", "m"), y=("n", "m"))
    def gram(x, y=None):
        return x.T @ (x if y is None else y)

    assert gram(np.ones((4, 2)), None).shape == (2, 2)
    with pytest.raises(ContractViolation):
        gram(np.ones((4, 2)), np.ones((3, 2)))


def test_shape_contract_checks_return_value():
    @shape_contract(x=("n",), returns=("n", "n"))
    def not_outer(x):
        return x

    with pytest.raises(ContractViolation, match="return"):
        not_outer(np.ones(4))


def test_dtype_contract_kind_check():
    @dtype_contract(x="floating")
    def f(x):
        return x

    f(np.ones(2))
    with pytest.raises(ContractViolation):
        f(np.ones(2, dtype=complex))


def test_dtype_contract_preserves_catches_fp32_leak():
    @dtype_contract(x="inexact", preserves="x")
    def leaky(x):
        return x.astype(np.float32)  # reprolint: disable=R001

    @dtype_contract(x="inexact", preserves="x")
    def safe(x):
        return (x.astype(np.float32).astype(x.dtype))  # reprolint: disable=R001

    assert safe(np.ones(2)).dtype == np.float64
    with pytest.raises(ContractViolation, match="dtype"):
        leaky(np.ones(2))


def test_production_kernel_contract_fires():
    from repro.core.subspace import batched_rotate

    X = np.random.default_rng(0).standard_normal((8, 4))
    with pytest.raises(ContractViolation):
        batched_rotate(X, np.eye(3))  # Q must be (nvec, k) with nvec == 4


# ----- suppression-pragma census --------------------------------------------
def test_pragma_census_is_pinned():
    """Pin the surviving suppressions so a new pragma is a deliberate,
    reviewed decision.

    The census tokenizes (docstrings that *mention* the pragma grammar do
    not count) and excludes the lint tool's own sources.
    """
    import io
    import tokenize

    from repro.tools.lint import _SUPPRESS_RE

    census: dict[str, int] = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        if "tools/lint" in path.as_posix():
            continue
        toks = tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline
        )
        for tok in toks:
            if tok.type == tokenize.COMMENT and _SUPPRESS_RE.search(
                tok.string
            ):
                census[path.name] = census.get(path.name, 0) + 1
    assert census == {
        # R011 x1 (procranks) lock-release-on-unwind re-raise
        "cluster.py": 1,
        # R011 x1: crash-to-status boundary of the rank protocol
        "worker.py": 1,
        # R005 x4: close/unlink teardown tolerates mapped views and
        # already-reaped names (see _release_segments docstring)
        "arena.py": 4,
        # R001 x4: the CholGS/RR engine's single-cast FP32 mirrors
        "subspace.py": 4,
    }, census
    assert sum(census.values()) == 10


# ----- external tool gates (run only where installed) -----------------------
@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src", "benchmarks", "examples"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_allowlist():
    proc = subprocess.run(
        ["mypy", "--config-file", "pyproject.toml"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
