"""Repo-wide static-analysis gate and runtime-contract unit tests.

The linchpin test here is the self-check: ``reprolint`` must report zero
findings over the package source, benchmarks and examples (the test tree
is excluded on purpose — its fixtures *are* violations).  Every
intentional mixed-precision downcast therefore carries an explicit
``# reprolint: disable=R001`` pragma with a justifying comment.

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


# ----- self-check: the repo is reprolint-clean ------------------------------
def test_repo_is_reprolint_clean():
    findings = lint_paths(LINT_TARGETS)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_module_entrypoint_clean_on_src():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.lint", "src"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_repro_cli_lint_subcommand(capsys):
    from repro.__main__ import main

    fixture = REPO / "tests" / "fixtures" / "reprolint" / "r001_bad.py"
    assert main(["lint", str(fixture)]) == 1
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
    from repro.core.orthonorm import blocked_rotate

    X = np.random.default_rng(0).standard_normal((8, 4))
    with pytest.raises(ContractViolation):
        blocked_rotate(X, np.eye(3))  # Q must be (nvec, k) with nvec == 4


# ----- suppression-pragma census --------------------------------------------
def test_pragma_census_is_pinned():
    """The flow-aware rules made most suppressions unnecessary; pin the
    survivors so new pragmas are a deliberate, reviewed decision.

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
    }, census
    assert sum(census.values()) == 6


# ----- SARIF output ----------------------------------------------------------
def test_sarif_document_structure():
    from repro.tools.lint import all_rules, lint_file
    from repro.tools.lint.sarif import (
        SARIF_SCHEMA_URI,
        SARIF_VERSION,
        sarif_document,
    )

    fixture = REPO / "tests" / "fixtures" / "reprolint" / "r001_bad.py"
    findings = lint_file(fixture)
    assert findings, "fixture must produce findings"
    doc = sarif_document(findings, all_rules(None))
    assert doc["$schema"] == SARIF_SCHEMA_URI
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"R001", "R013", "R014", "R015", "R016"} <= set(rule_ids)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in ("error", "warning")
    assert len(run["results"]) == len(findings)
    for res, f in zip(run["results"], findings):
        assert res["ruleId"] == f.rule_id
        assert res["ruleId"] in rule_ids
        assert res["message"]["text"] == f.message
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("r001_bad.py")
        assert loc["region"]["startLine"] == f.line
        assert loc["region"]["startColumn"] == f.col


def test_sarif_cli_round_trips_as_json(capsys):
    import json

    from repro.tools.lint import main

    fixture = REPO / "tests" / "fixtures" / "reprolint" / "r001_bad.py"
    assert main(["--format", "sarif", str(fixture)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"]


# ----- baselines and --changed ----------------------------------------------
BAD_SNIPPET = '''import numpy as np


def leak(x):
    return x.astype(np.float32)
'''


def test_baseline_suppresses_old_findings_only(tmp_path, capsys):
    import json

    from repro.tools.lint import main

    target = tmp_path / "mod.py"
    target.write_text(BAD_SNIPPET)
    bl = tmp_path / "baseline.json"

    assert main(["--baseline", str(bl), "--write-baseline", str(target)]) == 0
    capsys.readouterr()
    # all current findings are baselined -> clean
    assert main(["--baseline", str(bl), str(target)]) == 0
    capsys.readouterr()

    # a new violation fails the run, and only the new one is reported
    target.write_text(
        BAD_SNIPPET + "\n\ndef leak2(y):\n    return y.astype(np.float32)\n"
    )
    assert main(["--format", "json", "--baseline", str(bl), str(target)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    (finding,) = doc["findings"]
    assert finding["rule"] == "R001"
    assert "leak2" in finding["message"]


def test_baseline_write_requires_path_and_rejects_bad_schema(tmp_path, capsys):
    from repro.tools.lint import main
    from repro.tools.lint.baseline import load_baseline

    assert main(["--write-baseline", "src"]) == 2
    capsys.readouterr()
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "something-else/9", "entries": []}')
    with pytest.raises(ValueError, match="not a reprolint baseline"):
        load_baseline(bogus)
    target = tmp_path / "ok.py"
    target.write_text("x = 1\n")
    assert main(["--baseline", str(bogus), str(target)]) == 2


def test_baseline_counts_per_fingerprint(tmp_path):
    from repro.tools.lint import lint_file
    from repro.tools.lint.baseline import (
        load_baseline,
        new_findings,
        write_baseline,
    )

    target = tmp_path / "mod.py"
    target.write_text(BAD_SNIPPET)
    first = lint_file(target)
    write_baseline(tmp_path / "bl.json", first)
    counts = load_baseline(tmp_path / "bl.json")
    assert sum(counts.values()) == len(first)
    # a second identical finding at a later line counts as new
    target.write_text(
        BAD_SNIPPET + "\n\ndef leak_b(y):\n    return y.astype(np.float32)\n"
    )
    fresh = new_findings(lint_file(target), counts)
    assert len(fresh) == 1
    assert fresh[0].line > first[0].line


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_changed_paths_sees_untracked_and_modified(tmp_path):
    from repro.tools.lint.baseline import changed_paths

    subprocess.run(
        ["git", "init", "-q", str(tmp_path)], check=True, capture_output=True
    )
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    subprocess.run(
        ["git", "-C", str(tmp_path), "add", "clean.py"],
        check=True,
        capture_output=True,
    )
    fresh = tmp_path / "fresh.py"
    fresh.write_text(BAD_SNIPPET)
    changed = changed_paths([tmp_path])
    assert fresh.resolve() in changed
    # non-.py and missing files never appear
    (tmp_path / "notes.txt").write_text("hi\n")
    assert all(p.suffix == ".py" for p in changed_paths([tmp_path]))


def test_changed_flag_outside_git_tree_is_usage_error(tmp_path, capsys):
    from repro.tools.lint import main

    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    rc = main(["--changed", str(target)])
    captured = capsys.readouterr()
    if rc == 2:  # not a work tree (the expected container layout)
        assert "--changed" in captured.err
    else:  # tmp sits under some outer work tree: still a valid run
        assert rc in (0, 1)


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
