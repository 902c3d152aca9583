"""reprolint self-check throughput: the static-analysis gate must stay cheap.

Times the full repo self-check (``lint_paths`` over ``src``,
``benchmarks`` and ``examples`` with every rule enabled — the same call
``tests/test_static_analysis.py`` gates on) and a rules-only pass over
``src`` to separate parse cost from analysis cost.  Every rule is a
single pass over one file's AST (the concurrency rules close over the
module's call graph), so the cost should stay linear in the source; this
benchmark exists to catch accidental superlinear blowups: the headline
gate is that the whole self-check finishes in a few seconds.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_lint.py

or via pytest (``pytest benchmarks/bench_lint.py``), which also enforces
the wall-time gate.
"""

import pathlib

from repro.obs import Stopwatch
from repro.tools.lint import all_rules, lint_paths

from _harness import write_result

REPO = pathlib.Path(__file__).resolve().parent.parent
TARGETS = [REPO / "src", REPO / "benchmarks", REPO / "examples"]

#: the self-check gate: a pre-commit-sized budget, not a benchmark race
GATE_SECONDS = 10.0
REPEATS = 3


def _count_files() -> int:
    return sum(len(sorted(p.rglob("*.py"))) for p in TARGETS)


def run_selfcheck(repeats: int = REPEATS):
    """Best-of-``repeats`` wall seconds for the repo-wide self-check."""
    best = float("inf")
    findings = None
    for _ in range(repeats):
        watch = Stopwatch()
        findings = lint_paths(TARGETS)
        best = min(best, watch.elapsed())
    return best, findings


def run_parse_only(repeats: int = REPEATS) -> float:
    """Wall seconds with an empty rule set: file IO + AST parse cost."""
    best = float("inf")
    for _ in range(repeats):
        watch = Stopwatch()
        lint_paths([REPO / "src"], select=[])
        best = min(best, watch.elapsed())
    return best


def bench() -> dict:
    nfiles = _count_files()
    seconds, findings = run_selfcheck()
    parse_seconds = run_parse_only()
    metrics = {
        "files": nfiles,
        "rules": len(all_rules(None)),
        "findings": len(findings),
        "files_per_s": nfiles / seconds,
        "parse_only_seconds_src": parse_seconds,
        "gate_seconds": GATE_SECONDS,
    }
    write_result(
        "lint",
        params={"targets": [p.name for p in TARGETS], "repeats": REPEATS},
        wall_seconds=seconds,
        metrics=metrics,
    )
    return {"wall_seconds": seconds, **metrics}


def test_selfcheck_gate():
    """The self-check stays clean and inside its time budget."""
    result = bench()
    assert result["findings"] == 0
    assert result["wall_seconds"] < GATE_SECONDS, result


if __name__ == "__main__":
    out = bench()
    print(
        f"reprolint self-check: {out['files']} files, {out['rules']} rules, "
        f"{out['findings']} findings in {out['wall_seconds']:.3f}s "
        f"({out['files_per_s']:.0f} files/s; parse-only src "
        f"{out['parse_only_seconds_src']:.3f}s)"
    )
