"""Concurrency-safety rules (R013, R014, R016) for reprolint.

The serve runtime's slice workers (``repro/serve/server.py``) run several
solvers on threads of one process, so more than one thread touches
shared numerical state.  These rules find the static half of that hazard
class; the runtime half is covered by :mod:`repro.tools.sanitize`
(``REPRO_SANITIZE=1``).

========  ==========================================================
R013      unlocked mutation of registered shared state (FlopLedger,
          Workspace pool, obs aggregators/sinks, traffic meters) in
          code reachable from thread-entry points
          (``pool.submit(f)`` / ``threading.Thread(target=f)``)
R014      pooled-buffer escape: a workspace-acquired buffer stored on
          ``self`` or returned past its scope without a documented
          ownership contract
R016      module-global mutation in thread-entry-reachable functions
========  ==========================================================

All three are module-local analyses: thread entries, call graphs and
lock scopes are resolved within one file.  A ``with <lock>:`` block
(any context expression whose dotted name contains ``lock``) sanctions
the mutations inside it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    module_functions,
    register,
    target_names,
)

__all__ = [
    "UnlockedSharedStateMutation",
    "PooledBufferEscape",
    "GlobalMutationInThreadEntry",
]

#: base-name substrings marking an object as registered shared state
_SHARED_HINTS = (
    "ledger", "workspace", "tally", "traffic", "aggregat", "sink",
    "shared",
)
#: container methods that mutate in place (``.add`` is deliberately
#: absent: ``ledger.add(...)`` is the FlopLedger's *locked* API)
_MUTATING_METHODS = frozenset(
    {"append", "extend", "clear", "update", "pop", "setdefault", "remove",
     "discard", "insert"}
)


def _is_lock_context(stmt: ast.With | ast.AsyncWith) -> bool:
    for item in stmt.items:
        dotted = dotted_name(item.context_expr)
        if dotted is None and isinstance(item.context_expr, ast.Call):
            dotted = dotted_name(item.context_expr.func)
        if dotted is not None and "lock" in dotted.lower():
            return True
    return False


def _function_table(
    tree: ast.Module,
) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """Module-local functions and methods, keyed by bare name."""
    table: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for fn in module_functions(tree):
        table.setdefault(fn.name, fn)
    return table


def _callee_name(func: ast.AST) -> str | None:
    """Bare name a call could resolve to module-locally (``f`` or
    ``self.f``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("self", "cls"):
            return func.attr
    return None


def _thread_entry_names(tree: ast.Module) -> set[str]:
    """Functions handed to ``*.submit(f, ...)`` or
    ``threading.Thread(target=f)``."""
    entries: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "submit":
            if node.args:
                name = _callee_name(node.args[0])
                if name:
                    entries.add(name)
        dotted = dotted_name(func)
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    name = _callee_name(kw.value)
                    if name:
                        entries.add(name)
    return entries


def _reachable_functions(
    tree: ast.Module,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions reachable from thread entries via the module-local call
    graph (including functions nested inside reachable ones)."""
    table = _function_table(tree)
    reachable: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    work = [n for n in _thread_entry_names(tree) if n in table]
    while work:
        name = work.pop()
        if name in reachable:
            continue
        fn = table[name]
        reachable[name] = fn
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = _callee_name(node.func)
                if callee and callee in table and callee not in reachable:
                    work.append(callee)
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn
                and node.name not in reachable
            ):
                work.append(node.name)
    return list(reachable.values())


def _walk_with_locks(
    stmts: list[ast.stmt], in_lock: bool = False
) -> Iterator[tuple[ast.stmt, bool]]:
    """Yield (statement, under-lock) pairs, descending into compound
    bodies but not into nested function/class definitions."""
    for stmt in stmts:
        yield stmt, in_lock
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        locked = in_lock
        if isinstance(stmt, (ast.With, ast.AsyncWith)) and _is_lock_context(
            stmt
        ):
            locked = True
        for attr in ("body", "orelse", "finalbody"):
            yield from _walk_with_locks(getattr(stmt, attr, []), locked)
        for handler in getattr(stmt, "handlers", []):
            yield from _walk_with_locks(handler.body, locked)
        for case in getattr(stmt, "cases", []):
            yield from _walk_with_locks(case.body, locked)


def _local_walk(fn: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` over a function's own code, not descending into
    nested function/class definitions (they are analyzed as their own
    scopes)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _shared_base(node: ast.AST) -> str | None:
    """Dotted base name if it smells like registered shared state."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    low = dotted.lower()
    if any(hint in low for hint in _SHARED_HINTS):
        return dotted
    return None


# ----------------------------------------------------------------------------
@register
class UnlockedSharedStateMutation(Rule):
    """R013: unlocked shared-state mutation reachable from worker threads.

    ``FlopLedger`` tallies, ``Workspace`` pools, tracer sink lists and
    traffic meters are mutated from worker threads; every such mutation
    must hold the owning lock.  The rule resolves thread
    entries (``pool.submit`` targets, ``threading.Thread`` targets),
    closes over the module-local call graph, and flags attribute or
    subscript stores — and in-place container mutations — whose base
    object's name marks it as shared, unless the statement sits inside a
    ``with <lock>:`` block.
    """

    rule_id = "R013"
    severity = "error"
    description = (
        "unlocked mutation of registered shared state (ledger/workspace/"
        "sink/traffic...) in code reachable from thread entries"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _reachable_functions(ctx.tree):
            for stmt, locked in _walk_with_locks(fn.body):
                if locked:
                    continue
                yield from self._check_stmt(ctx, fn, stmt)

    def _check_stmt(
        self, ctx: FileContext, fn: ast.AST, stmt: ast.stmt
    ) -> Iterator[Finding]:
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                base = _shared_base(target.value)
                if base is not None:
                    yield ctx.finding(
                        self,
                        stmt,
                        f"unlocked write to shared state '{base}' in "
                        f"'{fn.name}', which runs on worker threads; hold "
                        "the owning lock (with <lock>:)",
                    )
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _MUTATING_METHODS
            ):
                base = _shared_base(call.func.value)
                if base is not None:
                    yield ctx.finding(
                        self,
                        stmt,
                        f"unlocked .{call.func.attr}() on shared state "
                        f"'{base}' in '{fn.name}', which runs on worker "
                        "threads; hold the owning lock (with <lock>:)",
                    )


# ----------------------------------------------------------------------------
@register
class PooledBufferEscape(Rule):
    """R014: a pooled workspace buffer escapes its acquiring scope.

    Buffers from :class:`repro.fem.workspace.Workspace` (``.get`` /
    ``.zeros`` on a workspace-named object, or values written through
    ``out=`` into one) are valid only until the next acquisition with
    the same tag on that thread.  Returning one, yielding one, or
    storing one on ``self`` publishes a buffer whose contents will be
    silently overwritten.  Functions that *intentionally* hand out a
    pooled view must say so in their docstring (mention ``workspace``
    plus ``owned``/``pooled``/``valid until``) — the documented contract
    is the suppression.  ``buf.copy()`` is the sanctioned way to let a
    value outlive the pool.
    """

    rule_id = "R014"
    severity = "error"
    description = (
        "pooled workspace buffer returned or stored on self without a "
        "documented ownership contract (docstring: workspace-owned / "
        "valid until)"
    )

    @staticmethod
    def _workspace_base(node: ast.AST) -> bool:
        dotted = dotted_name(node)
        if dotted is None:
            return False
        parts = dotted.lower().split(".")
        return any(p == "ws" or "workspace" in p for p in parts)

    @staticmethod
    def _documented(fn: ast.AST) -> bool:
        doc = (ast.get_docstring(fn) or "").lower()
        return "workspace" in doc and any(
            hint in doc for hint in ("owned", "pooled", "valid until")
        )

    def _pooled_names(self, fn: ast.AST) -> set[str]:
        pooled: set[str] = set()
        for _round in range(3):  # bounded alias propagation
            grew = False
            for node in _local_walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                is_pooled = False
                if isinstance(value, ast.Call):
                    func = value.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in ("get", "zeros")
                        and self._workspace_base(func.value)
                    ):
                        is_pooled = True
                    else:
                        out_kw = next(
                            (
                                kw.value
                                for kw in value.keywords
                                if kw.arg == "out"
                            ),
                            None,
                        )
                        if (
                            isinstance(out_kw, ast.Name)
                            and out_kw.id in pooled
                        ):
                            is_pooled = True
                elif self._root_name(value) in pooled:
                    is_pooled = True
                if not is_pooled:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in pooled:
                        pooled.add(target.id)
                        grew = True
            if not grew:
                break
        return pooled

    @staticmethod
    def _root_name(expr: ast.AST) -> str | None:
        """Name behind plain aliases and views (``buf``, ``buf[:n]``,
        ``buf.T``) — deliberately *not* ``.copy()`` calls."""
        while isinstance(expr, (ast.Subscript, ast.Attribute)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in module_functions(ctx.tree):
            if self._documented(fn):
                continue
            pooled = self._pooled_names(fn)
            if not pooled:
                continue
            for node in _local_walk(fn):
                if isinstance(node, ast.Return) and node.value is not None:
                    name = self._root_name(node.value)
                    if name in pooled:
                        yield ctx.finding(
                            self,
                            node,
                            f"'{fn.name}' returns pooled buffer '{name}' "
                            "(valid only until the next workspace "
                            "acquisition); return a .copy() or document "
                            "the ownership contract in the docstring",
                        )
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    inner = getattr(node, "value", None)
                    if inner is not None and self._root_name(inner) in pooled:
                        yield ctx.finding(
                            self,
                            node,
                            f"'{fn.name}' yields a pooled workspace buffer; "
                            "yield a .copy() or document the ownership "
                            "contract in the docstring",
                        )
                elif isinstance(node, ast.Assign):
                    name = (
                        self._root_name(node.value)
                        if not isinstance(node.value, ast.Call)
                        else None
                    )
                    if name not in pooled:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Attribute):
                            yield ctx.finding(
                                self,
                                node,
                                f"pooled buffer '{name}' stored on "
                                f"'{dotted_name(target) or 'an object'}' in "
                                f"'{fn.name}' outlives its pool slot; store "
                                "a .copy() or document the ownership "
                                "contract",
                            )


# ----------------------------------------------------------------------------
@register
class GlobalMutationInThreadEntry(Rule):
    """R016: module-global mutation from thread-entry-reachable code.

    A ``global`` rebind or a subscript store into a module-level
    container from a function that runs on worker threads is a data race
    unless a lock is held — and unlike instance state, nothing ties the
    global to an owning lock.  Prefer per-call state or an explicitly
    locked structure.
    """

    rule_id = "R016"
    severity = "error"
    description = (
        "module-global mutation in a thread-entry-reachable function "
        "without holding a lock"
    )

    @staticmethod
    def _module_bindings(tree: ast.Module) -> set[str]:
        bound: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                bound.add(stmt.target.id)
        return bound

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_names = self._module_bindings(ctx.tree)
        for fn in _reachable_functions(ctx.tree):
            declared_global: set[str] = set()
            for node in _local_walk(fn):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for stmt, locked in _walk_with_locks(fn.body):
                if locked:
                    continue
                targets: list[ast.AST] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    targets = [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        yield ctx.finding(
                            self,
                            stmt,
                            f"'{fn.name}' rebinds module global "
                            f"'{target.id}' from a worker thread without a "
                            "lock; use per-call state or guard with a lock",
                        )
                    elif isinstance(target, ast.Subscript):
                        base = target.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in module_names
                            and base.id not in assigned_locally(fn, base.id)
                        ):
                            yield ctx.finding(
                                self,
                                stmt,
                                f"'{fn.name}' mutates module-level "
                                f"container '{base.id}' from a worker "
                                "thread without a lock; use per-call state "
                                "or guard with a lock",
                            )


def assigned_locally(fn: ast.AST, name: str) -> set[str]:
    """``{name}`` if the function rebinds it locally (then the subscript
    store targets a local, not the module global), else empty."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return {name}
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if name in target_names(node.target):
                return {name}
    return set()

