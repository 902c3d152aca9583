"""``reprolint`` — numerical-safety static analysis for this repository.

An AST-based analyzer purpose-built for the failure modes of the
DFT-FE-MLXC reproduction: silent precision loss around the mixed-precision
kernels, complex-step helpers that leak imaginary parts, nondeterminism in
the distributed collectives, and allocation/exception hygiene in the SCF
hot paths.  See :mod:`repro.tools.lint.rules` for the rule set.

Framework features:

* a rule registry (:func:`register`) with per-rule severity and optional
  path scoping (e.g. R003 only applies under ``hpc/``);
* single-pass AST rules (:mod:`~repro.tools.lint.rules`) and a
  module-local concurrency pass (:mod:`~repro.tools.lint.concurrency`,
  R013, R014, R016) that resolves thread entries and lock scopes, both
  built on the shared AST helpers below (:func:`dotted_name`,
  :func:`module_functions`, :func:`target_names`, :func:`header_exprs`);
* line-level suppressions — ``# reprolint: disable=R001`` (or
  ``disable=R001,R003``, or a bare ``disable`` for all rules) on the
  flagged line, and ``# reprolint: disable-file=R001`` near the top of a
  file for file-wide suppression;
* text and JSON output; exit code 0 (clean), 1 (findings), 2 (usage or
  unreadable input).

Programmatic use::

    from repro.tools.lint import lint_paths
    findings = lint_paths(["src/repro"])

Command line::

    python -m repro.tools.lint src/ [--format json] [--select R001,R004]
        [--list-rules]
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RULE_REGISTRY",
    "register",
    "all_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_text",
    "format_json",
    "main",
]

#: ``# reprolint: disable`` / ``disable=R001,R002`` comment grammar
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*(?:=\s*([A-Z0-9,\s]+))?"
)
#: lines scanned for ``disable-file`` pragmas
_FILE_PRAGMA_WINDOW = 10


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )


@dataclass
class FileContext:
    """Parsed source handed to each rule."""

    path: str  #: display path (as given on the command line)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule.rule_id,
            message=message,
            severity=rule.severity,
        )


class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`rule_id`, :attr:`description`, optionally
    :attr:`severity` (``"error"`` or ``"warning"``), :attr:`path_filters`
    (posix-path substrings the file must match for the rule to apply;
    ``None`` applies everywhere) and :attr:`path_excludes` (substrings
    that exempt a file even when the filters match), and implement
    :meth:`check`.
    """

    rule_id: str = ""
    description: str = ""
    severity: str = "error"
    path_filters: tuple[str, ...] | None = None
    path_excludes: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        posix = pathlib.PurePath(path).as_posix()
        if any(e in posix for e in self.path_excludes):
            return False
        if self.path_filters is None:
            return True
        return any(f in posix for f in self.path_filters)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------------
# AST helpers shared by the rule modules
def dotted_name(node: ast.AST) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c`` (None if not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function and method in the module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def target_names(t: ast.AST) -> Iterator[str]:
    """Names bound by an assignment/``for``/``with`` target expression."""
    if isinstance(t, ast.Name):
        yield t.id
    elif isinstance(t, (ast.Tuple, ast.List)):
        for e in t.elts:
            yield from target_names(e)
    elif isinstance(t, ast.Starred):
        yield from target_names(t.value)


def header_exprs(stmt: ast.AST) -> list[ast.AST]:
    """What a statement evaluates *itself*, not in a nested body: a
    compound statement's test / iterable / context expressions, or the
    whole of a simple statement."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(
        stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return []
    return [stmt]


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    if cls.severity not in ("error", "warning"):
        raise ValueError(f"{cls.rule_id}: severity must be 'error' or 'warning'")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def all_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the registered rules (optionally a subset)."""
    # rule implementations self-register on import
    from . import concurrency as _concurrency  # noqa: F401  (side effect)
    from . import rules as _rules  # noqa: F401  (import for side effect)

    ids = sorted(RULE_REGISTRY) if select is None else list(select)
    unknown = [i for i in ids if i not in RULE_REGISTRY]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
    return [RULE_REGISTRY[i]() for i in ids]


# ----------------------------------------------------------------------------
# suppression handling
def _suppressions(lines: list[str]) -> tuple[dict[int, set[str] | None], set[str] | None]:
    """Parse disable pragmas.

    Returns ``(per_line, file_wide)`` where ``per_line`` maps a 1-based
    line number to a set of suppressed rule ids (``None`` = all rules) and
    ``file_wide`` is the set suppressed for the whole file.
    """
    per_line: dict[int, set[str] | None] = {}
    file_wide: set[str] | None = set()
    for i, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        kind, ids = m.group(1), m.group(2)
        ruleset = (
            None if ids is None else {r.strip() for r in ids.split(",") if r.strip()}
        )
        if kind == "disable-file":
            if i <= _FILE_PRAGMA_WINDOW:
                if ruleset is None:
                    file_wide = None
                elif file_wide is not None:
                    file_wide |= ruleset
        else:
            per_line[i] = ruleset
    return per_line, file_wide


def _is_suppressed(
    f: Finding,
    per_line: dict[int, set[str] | None],
    file_wide: set[str] | None,
) -> bool:
    if file_wide is None or (file_wide and f.rule_id in file_wide):
        return True
    if f.line in per_line:
        rules = per_line[f.line]
        return rules is None or f.rule_id in rules
    return False


# ----------------------------------------------------------------------------
# running
def lint_source(
    source: str, path: str = "<string>", rules: list[Rule] | None = None
) -> list[Finding]:
    """Lint a source string; ``path`` is used for display and path scoping."""
    if rules is None:
        rules = all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) or 1,
                rule_id="E999",
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = FileContext(path=path, source=source, tree=tree)
    per_line, file_wide = _suppressions(ctx.lines)
    found: list[Finding] = []
    for rule in rules:
        if not rule.applies_to(path):
            continue
        for f in rule.check(ctx):
            if not _is_suppressed(f, per_line, file_wide):
                found.append(f)
    return sorted(found)


def lint_file(path: pathlib.Path, rules: list[Rule] | None = None) -> list[Finding]:
    return lint_source(path.read_text(encoding="utf-8"), str(path), rules)


def lint_paths(
    paths: Iterable[str | pathlib.Path],
    select: Iterable[str] | None = None,
    on_error: Callable[[str], None] | None = None,
) -> list[Finding]:
    """Lint files and directories (recursively, ``*.py``)."""
    rules = all_rules(select)
    findings: list[Finding] = []
    for p in paths:
        p = pathlib.Path(p)
        if p.is_dir():
            files = sorted(p.rglob("*.py"))
        elif p.exists():
            files = [p]
        else:
            if on_error is not None:
                on_error(f"reprolint: no such file or directory: {p}")
                continue
            raise FileNotFoundError(p)
        for f in files:
            findings.extend(lint_file(f, rules))
    return sorted(findings)


# ----------------------------------------------------------------------------
# output
def format_text(findings: list[Finding]) -> str:
    lines = [str(f) for f in findings]
    n_err = sum(1 for f in findings if f.severity == "error")
    n_warn = len(findings) - n_err
    lines.append(
        f"reprolint: {len(findings)} finding(s) ({n_err} error(s), "
        f"{n_warn} warning(s))"
    )
    return "\n".join(lines)


def format_json(findings: list[Finding]) -> str:
    return json.dumps(
        {
            "findings": [f.as_dict() for f in findings],
            "count": len(findings),
        },
        indent=2,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI driver.  Returns 0 (clean), 1 (findings), 2 (usage error)."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description="reprolint: numerical-safety static analysis",
    )
    ap.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument(
        "--select", default=None, metavar="R001,R002",
        help="comma-separated rule ids to run (default: all)",
    )
    ap.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.list_rules:
        for rule in all_rules():
            scope = (
                "everywhere" if rule.path_filters is None
                else ", ".join(rule.path_filters)
            )
            print(f"{rule.rule_id} [{rule.severity:<7}] ({scope}) {rule.description}")
        return 0

    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
        if not select:
            print("reprolint: --select given but names no rules", file=sys.stderr)
            return 2

    errors: list[str] = []
    try:
        findings = lint_paths(args.paths, select=select, on_error=errors.append)
    except KeyError as exc:
        print(f"reprolint: {exc.args[0]}", file=sys.stderr)
        return 2
    for msg in errors:
        print(msg, file=sys.stderr)

    print(format_json(findings) if args.format == "json" else format_text(findings))
    if errors:
        return 2
    return 1 if findings else 0
