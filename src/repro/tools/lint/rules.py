"""The reprolint rule set.

Each rule targets a failure mode this codebase has actually had to defend
against (see DESIGN.md "Correctness tooling"):

========  ==========================================================
R001      reduced-precision casts, allocations and mirror-helper
          calls outside the mixed-precision kernels
R002      complex-step differentiation helpers that perturb with a
          complex step but never extract ``.real``/``.imag``
R003      nondeterminism (legacy ``np.random`` global RNG, unseeded
          generators, set-order iteration) in distributed code
R004      mutable / array default arguments
R005      bare ``except`` and silently swallowed exceptions
R006      ``np.zeros``/``np.empty`` without an explicit ``dtype=`` in
          the numerical core
R007      unused module-level imports
R008      unused local variables
R009      raw wall-clock reads (``time.perf_counter()`` etc.) outside
          the reproscope observability subsystem
R010      ``np.add.at`` scatter-adds outside the sanctioned
          ``repro/fem`` fast-scatter implementation
R011      broad ``except Exception`` / ``except BaseException`` / bare
          ``except`` outside the ``repro/resilience`` recovery boundary
R012      ``.astype`` casts inside ``for``/``while`` bodies in the
          numerical core, where the batched subspace engine's
          single-cast mirrors belong
R017      ``SharedMemory`` segment creation/attachment outside the
          ``repro/hpc/procranks`` arena, whose finalizer-backed
          lifecycle is the one sanctioned leak-proof owner
========  ==========================================================

The concurrency-safety rules R013, R014 and R016 (unlocked shared-state
mutation, pooled-buffer escapes, module-global mutation from thread
entries) live in :mod:`repro.tools.lint.concurrency`.  Environment reads
need no rule: ``tests/test_env_surface.py`` pins every one the package
makes.

Every rule is a single pass over one module's AST: no control flow or
dataflow is modelled, so a rule flags the construct wherever it appears
and a sanctioned exception is a path exclusion or a line pragma.

Add a rule by subclassing :class:`~repro.tools.lint.Rule`, decorating it
with :func:`~repro.tools.lint.register`, and yielding
``ctx.finding(self, node, message)`` from ``check``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from . import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    header_exprs,
    module_functions,
    register,
)

__all__ = [
    "DowncastOutsideWhitelist",
    "ComplexStepLeak",
    "NondeterministicCollective",
    "MutableDefaultArgument",
    "SwallowedException",
    "ImplicitDtypeAllocation",
    "UnusedImport",
    "UnusedVariable",
    "RawTimingOutsideObs",
    "SlowScatterOutsideFem",
    "BroadExceptionHandler",
    "AstypeInsideLoop",
    "SharedMemoryOutsideArena",
]


#: attribute / string spellings of reduced-precision dtypes
_LOWPREC_ATTRS = frozenset(
    {"float32", "complex64", "float16", "half", "single", "csingle"}
)
_LOWPREC_STRINGS = frozenset(
    {"float32", "complex64", "float16", "single", "f4", "c8", "f2"}
)
#: call leaves that produce a reduced-precision array by convention
_HELPER_RE = re.compile(r"(fp32|f32|c64|mirror)", re.IGNORECASE)
#: numpy constructors taking a dtype, with its positional index
_NP_DTYPE_POS = {
    "zeros": 1, "empty": 1, "ones": 1, "full": 2, "array": 1,
    "asarray": 1, "ascontiguousarray": 1, "asfortranarray": 1,
    "zeros_like": 1, "empty_like": 1, "ones_like": 1, "full_like": 2,
}


def lowprec_dtype_names(tree: ast.Module) -> set[str]:
    """Names assigned from a reduced-precision *dtype-valued* expression
    (``f32 = np.float32``, ``pdt = f32_dtype(X.dtype)``...)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and is_lowprec_dtype(
                node.value, names
            ):
                names.add(target.id)
    return names


def is_lowprec_dtype(node: ast.AST, names: set[str]) -> bool:
    """Does this expression denote a reduced-precision dtype value?"""
    if isinstance(node, ast.Attribute) and node.attr in _LOWPREC_ATTRS:
        return True
    if isinstance(node, ast.Name) and node.id in names:
        return True
    if isinstance(node, ast.Constant) and node.value in _LOWPREC_STRINGS:
        return True
    if isinstance(node, ast.IfExp):
        return is_lowprec_dtype(node.body, names) or is_lowprec_dtype(
            node.orelse, names
        )
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is not None:
            leaf = dotted.rsplit(".", maxsplit=1)[-1]
            # np.dtype("float32"), and helper factories like f32_dtype(...)
            if leaf == "dtype" and node.args and is_lowprec_dtype(
                node.args[0], names
            ):
                return True
            if "f32" in leaf or "c64" in leaf:
                return True
    return False


def _is_astype(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype"
    )


def _dtype_arg(call: ast.Call, pos: int) -> ast.AST | None:
    """The ``dtype=`` keyword of a call, else its ``pos``-th argument."""
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return call.args[pos] if len(call.args) > pos else None


# ----------------------------------------------------------------------------
@register
class DowncastOutsideWhitelist(Rule):
    """R001: reduced precision outside the mixed-precision kernels.

    The paper's speedups rely on FP32 *blocks* inside CholGS-S/CholGS-O,
    RR-P/RR-SR and the halo exchange — and nowhere else.  Three constructs
    make reduced precision and are flagged wherever they appear: an
    ``.astype`` to a reduced dtype, a numpy allocation with a reduced
    ``dtype``, and a call to a mirror helper (``fp32`` / ``f32`` / ``c64``
    / ``mirror`` in its name; ``*dtype*`` factories return dtypes, not
    arrays).  A reduced dtype is resolved syntactically: attribute and
    string spellings, ``np.dtype(...)`` of one, and module names bound to
    one.  The one pattern left alone is a cast straight back up in the
    same expression (``x.astype(f32).astype(dtype)``, the FP32 halo's
    rounding).  The single-cast helper (``repro/precision.py``) is
    excluded by path; every other sanctioned site — the four FP32 mirror
    calls of the CholGS/RR engine (``repro/core/subspace.py``) — carries a
    ``# reprolint: disable=R001`` pragma, so the rule still covers the rest
    of that module.
    """

    rule_id = "R001"
    severity = "error"
    description = (
        "reduced-precision astype downcast, low-precision allocation or "
        "mirror-helper call outside the mixed-precision kernels"
    )
    path_excludes = ("repro/precision.py",)

    @staticmethod
    def _reduced(call: ast.Call, names: set[str]) -> str | None:
        """What reduced precision ``call`` makes, or None."""
        if _is_astype(call):
            dtype = _dtype_arg(call, 0)
            if dtype is not None and is_lowprec_dtype(dtype, names):
                return "astype() to a reduced-precision dtype"
            return None
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        leaf = parts[-1]
        if len(parts) >= 2 and parts[0] in ("np", "numpy"):
            pos = _NP_DTYPE_POS.get(leaf)
            if pos is not None:
                dtype = _dtype_arg(call, pos)
                if dtype is not None and is_lowprec_dtype(dtype, names):
                    return f"np.{leaf} with a reduced-precision dtype"
            return None
        if "dtype" not in leaf.lower() and _HELPER_RE.search(leaf):
            return f"call to {dotted}()"
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        names = lowprec_dtype_names(ctx.tree)
        upcast_back: set[int] = set()
        # ast.walk is breadth-first: an outer call is seen before the
        # inner cast it may send straight back up
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in upcast_back:
                continue
            detail = self._reduced(node, names)
            if detail is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"{detail} outside the mixed-precision kernels; confine "
                    "reduced precision to repro.precision / core.subspace "
                    "or annotate with `# reprolint: disable=R001`",
                )
            elif _is_astype(node) and _is_astype(node.func.value):
                upcast_back.add(id(node.func.value))


# ----------------------------------------------------------------------------
@register
class ComplexStepLeak(Rule):
    """R002: complex-step perturbation without real-part restoration.

    Complex-step differentiation (``f'(x) = Im f(x + ih)/h``) perturbs an
    argument with ``x + 1j*h``.  A helper that does so but never touches
    ``.real``/``.imag`` (or ``np.real``/``np.imag``) returns a silently
    complex array — downstream code then carries an O(h) imaginary part
    into real-dtype stores, or crashes much later on a dtype mismatch.
    """

    rule_id = "R002"
    severity = "error"
    description = (
        "function perturbs with a complex step but never extracts "
        ".real/.imag before returning"
    )

    #: substrings marking a variable as a differentiation step size
    _STEP_HINTS = ("step", "eps", "delta", "pert")

    @classmethod
    def _is_step_mult(cls, node: ast.AST) -> bool:
        """``1j * h``-shaped: a complex constant times a step-named variable."""
        has_complex = False
        has_step_name = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, complex):
                has_complex = True
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None:
                low = name.lower()
                if low == "h" or any(hint in low for hint in cls._STEP_HINTS):
                    has_step_name = True
        return has_complex and has_step_name

    def _perturbation(self, fn: ast.AST) -> ast.AST | None:
        """First ``a + 1j*h``-shaped expression inside ``fn``.

        Matches an Add/Sub whose one side is either a *tiny* literal
        complex step (``x + 1e-30j``) or a complex constant multiplied by a
        step-named variable (``x + 1j * h``).  Unit-magnitude complex
        constructions — Bloch phases, random complex matrices
        (``A + 1j * B``) — are intentionally complex, not perturbations.
        """
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                for side in (node.left, node.right):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, complex)
                        and 0 < abs(side.value) < 1e-6
                    ):
                        return node
                    if isinstance(side, ast.BinOp) and isinstance(
                        side.op, ast.Mult
                    ) and self._is_step_mult(side):
                        return node
        return None

    @staticmethod
    def _restores_real(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr in ("real", "imag"):
                return True
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None and dotted.rsplit(".", 1)[-1] in (
                    "real",
                    "imag",
                    "real_if_close",
                ):
                    return True
                # explicit dtype management (np.asarray(x, dtype=...),
                # x.astype(...)) counts as restoring the output dtype
                if any(kw.arg == "dtype" for kw in node.keywords):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in module_functions(ctx.tree):
            pert = self._perturbation(fn)
            if pert is not None and not self._restores_real(fn):
                yield ctx.finding(
                    self,
                    pert,
                    f"'{fn.name}' perturbs with a complex step but never "
                    "extracts .real/.imag — the O(h) imaginary part leaks "
                    "to the caller",
                )


# ----------------------------------------------------------------------------
@register
class NondeterministicCollective(Rule):
    """R003: nondeterminism in distributed / partitioning code.

    The virtual cluster's owner-sum halo protocol promises bitwise-identical
    results across ranks, and partitions must be stable across runs so the
    communication metering is reproducible.  Legacy ``np.random.*`` global
    state, unseeded generators and set-order iteration all break that.
    """

    rule_id = "R003"
    severity = "error"
    description = (
        "nondeterministic construct (legacy np.random, unseeded Generator, "
        "set-order iteration) in distributed code"
    )
    path_filters = ("hpc/", "fem/partition.py")

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "set"
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in (None, ""):
                    continue
                parts = dotted.split(".")
                if len(parts) >= 3 and parts[-2] == "random" and parts[-3] in (
                    "np",
                    "numpy",
                ):
                    if parts[-1] == "default_rng":
                        if not node.args and not node.keywords:
                            yield ctx.finding(
                                self,
                                node,
                                "np.random.default_rng() without a seed is "
                                "nondeterministic across runs",
                            )
                    else:
                        yield ctx.finding(
                            self,
                            node,
                            f"legacy global RNG np.random.{parts[-1]}() is "
                            "nondeterministic shared state; use a seeded "
                            "np.random.default_rng(seed)",
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    yield ctx.finding(
                        self,
                        node.iter,
                        "iterating a set has hash-order-dependent "
                        "(nondeterministic) ordering; sort it first",
                    )
            elif isinstance(node, ast.comprehension):
                if self._is_set_expr(node.iter):
                    yield ctx.finding(
                        self,
                        node.iter,
                        "comprehension iterates a set in hash order; sort it "
                        "first for deterministic results",
                    )


# ----------------------------------------------------------------------------
@register
class MutableDefaultArgument(Rule):
    """R004: mutable (or array) default argument values.

    Defaults are evaluated once at ``def`` time; list/dict/set/ndarray
    defaults are shared across calls, so in-place mutation in one SCF run
    contaminates the next.
    """

    rule_id = "R004"
    severity = "error"
    description = "mutable or array default argument (evaluated once, shared)"

    _CTOR_NAMES = frozenset(
        {
            "list", "dict", "set", "bytearray", "deque", "defaultdict",
            "Counter", "OrderedDict", "array", "zeros", "ones", "empty",
            "full", "asarray",
        }
    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in self._CTOR_NAMES:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in module_functions(ctx.tree):
            args = fn.args
            named = args.posonlyargs + args.args
            for arg, default in zip(named[len(named) - len(args.defaults):],
                                    args.defaults):
                if self._is_mutable(default):
                    yield ctx.finding(
                        self,
                        default,
                        f"default for '{arg.arg}' in '{fn.name}' is mutable "
                        "and shared across calls; default to None instead",
                    )
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None and self._is_mutable(default):
                    yield ctx.finding(
                        self,
                        default,
                        f"default for '{arg.arg}' in '{fn.name}' is mutable "
                        "and shared across calls; default to None instead",
                    )


# ----------------------------------------------------------------------------
@register
class SwallowedException(Rule):
    """R005: bare ``except`` / exception handlers that swallow silently.

    SCF and MINRES loops signal convergence failure through exceptions and
    result flags; a bare ``except:`` (which also catches KeyboardInterrupt)
    or a handler whose body is only ``pass`` turns a diverged solve into
    silently wrong numbers.
    """

    rule_id = "R005"
    severity = "error"
    description = "bare except or exception handler that swallows silently"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                    "hides convergence failures; name the exception",
                )
                continue
            body = [
                stmt for stmt in node.body
                if not (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
            ]
            if all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in body):
                yield ctx.finding(
                    self,
                    node,
                    "exception is swallowed without handling or logging; "
                    "record the failure or re-raise",
                )


# ----------------------------------------------------------------------------
@register
class ImplicitDtypeAllocation(Rule):
    """R006: allocations without an explicit dtype in the numerical core.

    ``np.zeros(n)`` defaults to float64 — until someone feeds the result
    into a complex (Bloch) code path and the imaginary part is silently
    discarded on assignment.  In ``core/`` and the assembly kernels every
    allocation states its dtype.  Besides a direct ``np.zeros`` /
    ``np.empty`` without one, the rule flags a call through a name bound
    to either allocator, ``dtype=None``, and ``dtype=<name>`` where the
    name is bound to ``None``.  A name counts as bound if any assignment
    in the module binds it so, which over-approximates the bindings that
    can reach the call.
    """

    rule_id = "R006"
    severity = "error"
    description = (
        "np.zeros/np.empty without an explicit (non-None) dtype= in the "
        "numerical core, including aliased allocators"
    )
    path_filters = ("core/", "fem/assembly.py")

    @staticmethod
    def _allocator_leaf(value: ast.AST) -> str | None:
        """``zeros``/``empty`` when ``value`` is bare ``np.zeros``/``np.empty``."""
        dotted = dotted_name(value)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] in ("np", "numpy") and parts[1] in (
            "zeros",
            "empty",
        ):
            return parts[1]
        return None

    @staticmethod
    def _is_none(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        aliases: dict[str, str] = {}
        none_names: set[str] = set()
        calls: list[ast.Call] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, ast.Assign):
                leaf = self._allocator_leaf(node.value)
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if leaf is not None:
                        aliases[target.id] = leaf
                    elif self._is_none(node.value):
                        none_names.add(target.id)
        for call in calls:
            name = call.func.id if isinstance(call.func, ast.Name) else None
            leaf = aliases.get(name) or self._allocator_leaf(call.func)
            if leaf is None:
                continue
            dtype = _dtype_arg(call, 1)
            if dtype is None:
                what = f"'{name}' (an alias of np.{leaf})" if name else (
                    f"np.{leaf}()"
                )
                yield ctx.finding(
                    self,
                    call,
                    f"{what} without explicit dtype= in the numerical "
                    "core; state the dtype (float or the operator's "
                    "complex dtype)",
                )
            elif self._is_none(dtype):
                yield ctx.finding(
                    self,
                    call,
                    "dtype=None is the implicit default in disguise; state "
                    "the dtype explicitly",
                )
            elif isinstance(dtype, ast.Name) and dtype.id in none_names:
                yield ctx.finding(
                    self,
                    call,
                    f"dtype variable '{dtype.id}' is bound to None in this "
                    "module; resolve the dtype before the allocation",
                )


# ----------------------------------------------------------------------------
@register
class UnusedImport(Rule):
    """R007: module-level imports that are never referenced.

    Dead imports hide real dependencies and (for heavy modules) slow cold
    start.  ``__init__.py`` re-export modules are exempt unless they define
    ``__all__``, in which case imports must appear there or in code.
    """

    rule_id = "R007"
    severity = "warning"
    description = "module-level import is never used"

    @staticmethod
    def _exported(tree: ast.Module) -> set[str] | None:
        """Names in ``__all__`` if present, else None."""
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                return {
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                }
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        exported = self._exported(ctx.tree)
        if ctx.path.endswith("__init__.py") and exported is None:
            return  # pure re-export module
        used: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
        if exported:
            used |= exported

        for node in ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        yield ctx.finding(
                            self, node, f"'import {alias.name}' is unused"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    if bound not in used:
                        mod = "." * node.level + (node.module or "")
                        yield ctx.finding(
                            self,
                            node,
                            f"'from {mod} import {alias.name}' is unused",
                        )


# ----------------------------------------------------------------------------
@register
class UnusedVariable(Rule):
    """R008: local variables assigned but never read.

    Usually a leftover from refactoring — or worse, a result that was meant
    to be used (a computed correction that never makes it into the energy).
    Underscore-prefixed names are exempt.
    """

    rule_id = "R008"
    severity = "warning"
    description = "local variable is assigned but never used"

    _DYNAMIC = frozenset({"locals", "vars", "eval", "exec", "globals"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in module_functions(ctx.tree):
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._DYNAMIC
                for node in ast.walk(fn)
            ):
                continue
            loaded: set[str] = set()
            augmented: set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    augmented.add(node.target.id)
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("_") or name in loaded or name in augmented:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"local variable '{name}' in '{fn.name}' is assigned but "
                    "never used",
                )


# ----------------------------------------------------------------------------
@register
class RawTimingOutsideObs(Rule):
    """R009: ad-hoc wall-clock reads bypass the reproscope subsystem.

    Timing scattered through the code as raw ``time.perf_counter()`` pairs
    cannot be aggregated, exported, or compared against the performance
    model, and it silently disagrees with the span tree the tracer builds.
    All timing goes through :mod:`repro.obs` — ``trace_region`` /
    ``kernel_region`` for regions, ``Stopwatch`` for simple elapsed-time
    reads.  The obs package itself (which wraps the clock) is exempt.
    """

    rule_id = "R009"
    severity = "error"
    description = (
        "raw time.perf_counter()/time.time() outside repro/obs; use "
        "reproscope spans or repro.obs.Stopwatch"
    )
    path_excludes = ("repro/obs/",)

    _CLOCKS = frozenset(
        {
            "perf_counter", "perf_counter_ns", "time", "time_ns",
            "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "time"
                    and parts[1] in self._CLOCKS
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"raw clock read time.{parts[1]}() outside repro/obs; "
                        "wrap the region in a reproscope span "
                        "(trace_region/kernel_region) or use "
                        "repro.obs.Stopwatch",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                clocks = [
                    a.name for a in node.names if a.name in self._CLOCKS
                ]
                if clocks:
                    yield ctx.finding(
                        self,
                        node,
                        f"importing {', '.join(clocks)} from time bypasses "
                        "the reproscope clock; use repro.obs instead",
                    )


# ----------------------------------------------------------------------------
@register
class SlowScatterOutsideFem(Rule):
    """R010: ``np.add.at`` scatters outside the sanctioned FEM fast path.

    ``np.ufunc.at`` is an order-of-magnitude slower than the precomputed
    :class:`repro.fem.scatter.ScatterMap` (one CSR assembly-matrix product),
    which reproduces its accumulation order bit-for-bit.  Any scatter-add
    added elsewhere in the codebase silently reintroduces the bottleneck
    the fast apply path removed.  The FEM package itself is exempt: it
    holds the single production scatter, ``CellStiffness.scatter_add`` —
    the rank backends' per-rank partial sums, whose accumulation order is
    the rank's own cell list — and the 1-D pencil assembly of
    ``fdm.axis_pencil`` (set-up, a few hundred entries).  Any other
    sanctioned site carries an explicit ``# reprolint: disable=R010`` pragma.
    """

    rule_id = "R010"
    severity = "error"
    description = (
        "np.add.at scatter outside repro/fem; use a precomputed "
        "repro.fem.scatter.ScatterMap"
    )
    path_excludes = ("repro/fem/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) >= 2 and parts[-2:] == ["add", "at"]:
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted}(...) scatter outside repro/fem; build a "
                    "ScatterMap once per mesh and call .add_to() (bit-"
                    "identical to np.add.at on zeroed output), or mark a "
                    "sanctioned site with `# reprolint: disable=R010`",
                )


# ----------------------------------------------------------------------------
@register
class BroadExceptionHandler(Rule):
    """R011: broad exception handlers outside the resilience boundary.

    Fault recovery is the job of :mod:`repro.resilience` — its
    :class:`~repro.resilience.RetryPolicy` is the one sanctioned place a
    broad ``except Exception`` may live, because it re-raises as a
    structured :class:`~repro.resilience.ResilienceError` after bounded
    retries.  Anywhere else, ``except Exception`` (or worse,
    ``BaseException`` / a bare ``except``) turns an injected fault or a
    genuine numerical failure into a silently-continued run, defeating the
    chaos harness: the tests assert "recover or raise a structured error",
    and a broad handler does neither.  Catch the specific exception
    (``InjectedFault``, ``np.linalg.LinAlgError``, ...) or let it
    propagate to the retry layer.
    """

    rule_id = "R011"
    severity = "error"
    description = (
        "broad except Exception/BaseException/bare except outside "
        "repro/resilience; catch specific exceptions or propagate to "
        "the retry layer"
    )
    path_excludes = ("repro/resilience/",)

    _BROAD = frozenset({"Exception", "BaseException"})

    def _broad_names(self, node: ast.AST | None) -> list[str]:
        """Broad exception-class names mentioned by a handler's type."""
        if node is None:
            return ["(bare)"]
        exprs = node.elts if isinstance(node, ast.Tuple) else [node]
        names = []
        for expr in exprs:
            dotted = dotted_name(expr)
            if dotted is not None and dotted.split(".")[-1] in self._BROAD:
                names.append(dotted)
        return names

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_names(node.type)
            if not broad:
                continue
            if broad == ["(bare)"]:
                what = "bare 'except:'"
            else:
                what = f"'except {', '.join(broad)}'"
            yield ctx.finding(
                self,
                node,
                f"{what} outside repro/resilience swallows injected faults "
                "and real failures alike; catch the specific exception or "
                "let RetryPolicy handle it",
            )


# ----------------------------------------------------------------------------
@register
class SharedMemoryOutsideArena(Rule):
    """R017: raw shared-memory segments outside the procranks arena.

    POSIX shared memory has no owner once the creating process dies: a
    segment created ad hoc and not unlinked survives in ``/dev/shm`` until
    reboot, and a forked child that *unregisters* a name strips it from the
    parent's (fork-shared) resource tracker so the parent's unlink then
    fails.  :class:`repro.hpc.procranks.SharedArena` is the one sanctioned
    owner — it pairs every create with a ``weakref.finalize`` unlink and
    handles the fork-shared-tracker protocol, and the leak-guard tests
    enforce it.  Direct ``SharedMemory(...)`` construction (or a
    ``ShareableList``) anywhere else bypasses that lifecycle.
    """

    rule_id = "R017"
    severity = "error"
    description = (
        "multiprocessing SharedMemory/ShareableList constructed outside "
        "repro/hpc/procranks; allocate through SharedArena"
    )
    path_excludes = ("repro/hpc/procranks/",)

    _CTORS = frozenset({"SharedMemory", "ShareableList"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf in self._CTORS:
                yield ctx.finding(
                    self,
                    node,
                    f"{dotted}(...) creates a raw shared-memory segment "
                    "outside repro/hpc/procranks; allocate through "
                    "SharedArena (finalizer-backed unlink, fork-shared "
                    "resource-tracker protocol) so segments cannot leak "
                    "into /dev/shm",
                )



def _astypes_in_loop_bodies(tree: ast.Module) -> Iterator[ast.Call]:
    """``.astype`` calls evaluated inside a ``for``/``while`` body (its
    ``else`` arm included).  A loop's own header belongs to the enclosing
    context, comprehensions are not loop statements, and nested function
    and class bodies start outside any loop."""

    def visit(stmts: list, in_loop: bool) -> Iterator[ast.Call]:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from visit(stmt.body, False)
                continue
            if in_loop:
                for expr in header_exprs(stmt):
                    yield from filter(_is_astype, ast.walk(expr))
            inner = in_loop or isinstance(
                stmt, (ast.For, ast.AsyncFor, ast.While)
            )
            for attr in ("body", "orelse", "finalbody", "handlers"):
                yield from visit(getattr(stmt, attr, []), inner)
            for case in getattr(stmt, "cases", []):
                yield from visit(case.body, inner)

    yield from visit(tree.body, False)


# ----------------------------------------------------------------------------
@register
class AstypeInsideLoop(Rule):
    """R012: per-iteration ``.astype`` casts in repro/core.

    Re-casting the same columns once per block pair is exactly the pattern
    the batched subspace engine removed: with mixed precision, ``X``/``HX``
    are downcast to an FP32 mirror *once* per call
    (:func:`repro.precision.fp32_mirror`) and every block reads a slice.
    Any ``.astype`` inside a ``for``/``while`` body is flagged, whatever
    it casts; a comprehension is not a loop statement, so a cast in one
    is flagged only when the comprehension sits in a loop body.  Sanctioned
    reference implementations carry a ``# reprolint: disable=R012`` pragma.
    """

    rule_id = "R012"
    severity = "error"
    description = (
        "astype() inside a for/while body in repro/core; hoist to a "
        "single-cast mirror (repro.precision.fp32_mirror) outside the loop"
    )
    path_filters = ("core/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _astypes_in_loop_bodies(ctx.tree):
            yield ctx.finding(
                self,
                call,
                ".astype() inside a loop body casts every iteration; hoist "
                "it to a single fp32_mirror outside the loop (or mark a "
                "sanctioned reference path with "
                "`# reprolint: disable=R012`)",
            )
