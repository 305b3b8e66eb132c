"""The rushlint domain rules, RL001–RL009 and RL015.

Each rule mechanizes one invariant that RUSH's guarantees (Theorems 1–3
of the paper) lean on but the type system cannot express.  The catalog
with the full rationale per rule lives in ``docs/LINTING.md``; the
docstring of each class here states the check and its heuristic limits.

All checks are purely syntactic (AST walks over one file at a time): no
imports are executed and no cross-file inference happens, so a rule can
be wrong in both directions.  False positives are silenced with a
``# rushlint: disable=RLnnn (reason)`` comment; false negatives are
backstopped by the property-test suites.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from repro.lint.framework import FileContext, Finding, Rule, register_rule

__all__ = [
    "UnseededRandomRule",
    "WallClockRule",
    "FloatEqualityRule",
    "DecisionStreamRule",
    "FrozenMutationRule",
    "SolverExceptionRule",
    "PublicAnnotationRule",
    "BenchmarkDeterminismRule",
    "ObsClockFreeRule",
    "DurableWriteDisciplineRule",
]

#: ``numpy.random`` attributes that construct *seedable* generators and
#: are therefore allowed even in deterministic packages (anything else on
#: ``numpy.random`` is the legacy global-state API).
_SEEDABLE_NUMPY = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: Handler-body markers treated as "the failure was recorded" by RL006.
_RECORDING_ATTRS = frozenset({"fallback", "counts"})
_RECORDING_CALLS = frozenset({"record", "append", "warning", "error"})

#: ``time`` module functions that read the wall clock (banned) versus
#: the monotonic/CPU clocks that time planner stages (allowed).
_WALL_CLOCK_TIME = frozenset({
    "time", "time_ns", "localtime", "gmtime", "ctime", "strftime",
    "asctime",
})


class _ImportMap:
    """Where the interesting modules are bound in one file's namespace."""

    def __init__(self, tree: ast.Module) -> None:
        self.random_modules: Set[str] = set()
        self.random_names: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.numpy_random_modules: Set[str] = set()
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.default_rng_names: Set[str] = set()
        self.time_names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_modules.add(bound)
                    elif alias.name == "numpy.random":
                        self.numpy_random_modules.add(
                            alias.asname or "numpy")
                        if alias.asname is None:
                            self.numpy_modules.add("numpy")
                    elif alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        self.random_names.add(alias.asname or alias.name)
                elif node.module == "numpy.random":
                    for alias in node.names:
                        name = alias.asname or alias.name
                        if alias.name in _SEEDABLE_NUMPY:
                            self.default_rng_names.add(name)
                        else:
                            self.random_names.add(name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_classes.add(
                                alias.asname or alias.name)
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME:
                            self.time_names.add(alias.asname or alias.name)

    def numpy_random_attr(self, func: ast.expr) -> Optional[str]:
        """``X`` when ``func`` is ``<numpy>.random.X`` or ``<np.random>.X``."""
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if (isinstance(value, ast.Attribute) and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self.numpy_modules):
            return func.attr
        if (isinstance(value, ast.Name)
                and value.id in self.numpy_random_modules):
            return func.attr
        return None

    def stdlib_random_call(self, func: ast.expr) -> Optional[str]:
        """``X`` when ``func`` is stdlib ``random.X`` or a from-import."""
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.random_modules):
            return func.attr
        if isinstance(func, ast.Name) and func.id in self.random_names:
            return func.id
        return None


def _call_name(func: ast.expr) -> Optional[str]:
    """Terminal identifier of a call target (``a.b.plan`` -> ``plan``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _walk_calls(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _handler_records(handler: ast.ExceptHandler) -> bool:
    """Whether an ``except`` body re-raises or leaves a record."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Attribute) and node.attr in _RECORDING_ATTRS:
            return True
        if (isinstance(node, ast.Call)
                and _call_name(node.func) in _RECORDING_CALLS):
            return True
    return False


@register_rule
class UnseededRandomRule(Rule):
    """RL001 — no module-level RNG in deterministic packages.

    Flags calls through the stdlib ``random`` module and through the
    legacy ``numpy.random.*`` module-level API inside ``core``,
    ``cluster``, ``faults`` and ``workload``.  Those draw from hidden
    global state, so two runs with the same inputs and seeds diverge —
    breaking the simulator's replayability and the fault subsystem's
    monotone intensity coupling.  Seedable constructors
    (``default_rng``, ``Generator``, ``SeedSequence``, bit generators)
    are always allowed.
    """

    rule_id = "RL001"
    name = "unseeded-random"
    rationale = ("deterministic packages must draw all randomness from "
                 "seeded, explicitly-passed Generator streams")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_deterministic:
            return
        imports = _ImportMap(ctx.tree)
        for call in _walk_calls(ctx.tree):
            std = imports.stdlib_random_call(call.func)
            if std is not None:
                yield self.finding(
                    ctx, call,
                    f"call to stdlib random.{std}() uses hidden global "
                    "state; draw from a seeded np.random.Generator "
                    "passed in explicitly")
                continue
            np_attr = imports.numpy_random_attr(call.func)
            if np_attr is not None and np_attr not in _SEEDABLE_NUMPY:
                yield self.finding(
                    ctx, call,
                    f"np.random.{np_attr}() uses the legacy global "
                    "RandomState; use a seeded np.random.Generator")


@register_rule
class WallClockRule(Rule):
    """RL002 — no wall-clock reads in deterministic packages.

    ``time.time``/``datetime.now`` make plans a function of *when* they
    were computed, which breaks replay, golden traces and the
    cold-vs-incremental bit-identity property.  The monotonic clocks
    (``perf_counter``, ``monotonic``, ``process_time``) are allowed:
    they only time the planner's stages for ``PlanStats``, never feed a
    decision encoded in a plan.
    """

    rule_id = "RL002"
    name = "wall-clock"
    rationale = ("deterministic paths must not read calendar time; "
                 "stage timings use monotonic clocks only")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_deterministic:
            return
        yield from _wall_clock_findings(self, ctx)


def _wall_clock_findings(rule: Rule, ctx: FileContext) -> Iterator[Finding]:
    """Shared wall-clock detection for RL002 and RL008."""
    imports = _ImportMap(ctx.tree)
    for call in _walk_calls(ctx.tree):
        func = call.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imports.time_modules
                and func.attr in _WALL_CLOCK_TIME):
            yield rule.finding(
                ctx, call,
                f"time.{func.attr}() reads the wall clock; use slot "
                "counters (or a monotonic clock for timings)")
        elif isinstance(func, ast.Name) and func.id in imports.time_names:
            yield rule.finding(
                ctx, call,
                f"{func.id}() reads the wall clock; use slot counters")
        elif isinstance(func, ast.Attribute) and func.attr in (
                "now", "utcnow", "today", "fromtimestamp"):
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None)
            if base_name in imports.datetime_classes or (
                    base_name in ("datetime", "date")
                    and imports.datetime_modules):
                yield rule.finding(
                    ctx, call,
                    f"datetime {func.attr}() reads the wall clock; "
                    "deterministic paths must take time as an input")


@register_rule
class FloatEqualityRule(Rule):
    """RL003 — no ``==``/``!=`` on float-typed utility/PMF expressions.

    Utilities, KL divergences and demands are floats produced by chains
    of arithmetic; exact comparison silently depends on rounding and on
    evaluation order, which the incremental planner's bit-identity
    contract makes load-bearing.  The check is heuristic: a comparison
    is flagged when either side is a float literal, a call whose name is
    a known float-returning accessor, or an attribute from the known
    float-field list.  Intentional exact sentinel comparisons (for
    example ``theta == 0.0`` on a value passed through unchanged) get a
    ``# rushlint: disable=RL003 (...)`` justification instead.
    """

    rule_id = "RL003"
    name = "float-equality"
    rationale = ("exact float comparison hides rounding dependence; use "
                 "math.isclose or document exact-sentinel semantics")

    def _is_floaty(self, node: ast.expr, ctx: FileContext) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            return name in ctx.config.float_call_names
        if isinstance(node, ast.Attribute):
            return node.attr in ctx.config.float_attr_names
        if isinstance(node, ast.Name):
            return node.id in ctx.config.float_attr_names
        if isinstance(node, ast.UnaryOp):
            return self._is_floaty(node.operand, ctx)
        return False

    def _asserted_compares(self, ctx: FileContext) -> FrozenSet[int]:
        """ids of Compare nodes appearing inside ``assert`` statements."""
        inside: set = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Compare):
                        inside.add(id(sub))
        return frozenset(inside)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # In tests and benchmarks, exact equality inside an ``assert`` is
        # the point: the determinism gates promise *bit-identical* floats
        # (golden traces, cold/incremental planner equivalence), and isclose
        # would weaken exactly what they verify.  Comparisons outside
        # asserts (branch conditions, sentinels) are still flagged.
        exempt: FrozenSet[int] = frozenset()
        if ctx.is_test or ctx.is_benchmark:
            exempt = self._asserted_compares(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if id(node) in exempt:
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if self._is_floaty(left, ctx) or self._is_floaty(right, ctx):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx, node,
                        f"float {symbol} comparison; use math.isclose or "
                        "suppress with an exact-equality justification")


@register_rule
class DecisionStreamRule(Rule):
    """RL004 — fault injectors keep the decision stream unconditional.

    The monotone-coupling contract (``repro.faults.base``) requires each
    injector to consume exactly one decision draw per decision point,
    *regardless of outcome or intensity*.  Three syntactic breaches are
    flagged inside the ``faults`` package:

    * ``self._fires(...)`` as a non-first operand of ``and``/``or`` —
      short-circuiting makes the draw conditional on sibling state, so
      raising the intensity would shift the stream;
    * the variation stream (``.vary`` / ``._vary``) appearing inside a
      branch condition — fault *magnitudes* must never decide whether a
      fault fires;
    * raw ``._decide`` access outside the base-class plumbing — all
      decision draws must go through ``_fires()`` so the one-draw
      accounting stays centralized.
    """

    rule_id = "RL004"
    name = "decision-stream"
    rationale = ("one decision draw per decision point keeps fault "
                 "events a monotone function of intensity")

    _PLUMBING = frozenset({"_fires", "bind_rng", "vary", "__init__"})

    @staticmethod
    def _is_fires_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and _call_name(node.func) == "_fires")

    @staticmethod
    def _uses_variation(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in ("vary", "_vary"):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package != "faults":
            return
        func_of: Dict[ast.AST, str] = {}
        for fn in ast.walk(ctx.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(fn):
                    func_of.setdefault(sub, fn.name)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BoolOp):
                for value in node.values[1:]:
                    for sub in ast.walk(value):
                        if self._is_fires_call(sub):
                            yield self.finding(
                                ctx, sub,
                                "_fires() short-circuited behind "
                                "and/or: the decision draw becomes "
                                "conditional, breaking monotone "
                                "intensity coupling — draw first, "
                                "branch second")
            if isinstance(node, (ast.If, ast.While)):
                if self._uses_variation(node.test):
                    yield self.finding(
                        ctx, node.test,
                        "variation stream consulted in a branch "
                        "condition; decisions must come from the "
                        "decision stream via _fires()")
            if (isinstance(node, ast.Attribute) and node.attr == "_decide"
                    and func_of.get(node) not in self._PLUMBING):
                yield self.finding(
                    ctx, node,
                    "raw decision-stream access; draw through "
                    "_fires() so per-decision accounting holds")


@register_rule
class FrozenMutationRule(Rule):
    """RL005 — no mutation of frozen dataclasses or shared PMF arrays.

    :class:`~repro.estimation.pmf.Pmf` freezes its arrays with
    ``setflags(write=False)`` precisely so they can be shared between
    the WCDE cache, the planner and the estimators; un-freezing them
    (``setflags(write=True)``), writing through the public ``probs`` /
    ``cdf()`` views, or assigning to fields of a ``@dataclass(frozen=
    True)`` instance would let one consumer corrupt every holder of the
    same content-addressed entry.
    """

    rule_id = "RL005"
    name = "frozen-mutation"
    rationale = ("shared read-only PMF arrays and frozen dataclasses "
                 "back the content-addressed caches; mutation corrupts "
                 "every holder")

    _READONLY_VIEWS = frozenset({"probs", "cdf"})
    _MUTATING_METHODS = frozenset({"fill", "sort", "put", "partition",
                                   "resize", "itemset"})

    @staticmethod
    def _setflags_write_true(call: ast.Call) -> bool:
        if _call_name(call.func) != "setflags":
            return False
        for kw in call.keywords:
            if kw.arg == "write" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
        if call.args and isinstance(call.args[0], ast.Constant):
            return bool(call.args[0].value)
        return False

    def _is_readonly_view(self, node: ast.expr) -> bool:
        """``X.probs`` or ``X.cdf()`` — the shared read-only surfaces."""
        if isinstance(node, ast.Attribute):
            return node.attr in self._READONLY_VIEWS
        if isinstance(node, ast.Call):
            return (_call_name(node.func) in self._READONLY_VIEWS
                    and isinstance(node.func, ast.Attribute))
        return False

    @staticmethod
    def _frozen_classes(tree: ast.Module) -> Set[ast.ClassDef]:
        out: Set[ast.ClassDef] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                if (isinstance(deco, ast.Call)
                        and _call_name(deco.func) == "dataclass"):
                    for kw in deco.keywords:
                        if (kw.arg == "frozen"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value):
                            out.add(node)
        return out

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            if self._setflags_write_true(call):
                yield self.finding(
                    ctx, call,
                    "setflags(write=True) un-freezes a shared array; "
                    "copy instead of re-enabling writes")
            elif (isinstance(call.func, ast.Attribute)
                  and call.func.attr in self._MUTATING_METHODS
                  and self._is_readonly_view(call.func.value)):
                yield self.finding(
                    ctx, call,
                    f"in-place {call.func.attr}() on a read-only "
                    "probs/cdf view; operate on a copy")
        for node in ast.walk(ctx.tree):
            targets: Tuple[ast.expr, ...] = ()
            if isinstance(node, ast.Assign):
                targets = tuple(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = (node.target,)
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value
                if self._is_readonly_view(base):
                    yield self.finding(
                        ctx, node,
                        "write through a read-only probs/cdf view; "
                        "build a new Pmf instead")
        for cls in self._frozen_classes(ctx.tree):
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    continue
                for sub in ast.walk(fn):
                    tgts: Tuple[ast.expr, ...] = ()
                    if isinstance(sub, ast.Assign):
                        tgts = tuple(sub.targets)
                    elif isinstance(sub, ast.AugAssign):
                        tgts = (sub.target,)
                    for tgt in tgts:
                        if (isinstance(tgt, ast.Attribute)
                                and isinstance(tgt.value, ast.Name)
                                and tgt.value.id == "self"):
                            yield self.finding(
                                ctx, sub,
                                f"assignment to self.{tgt.attr} inside "
                                f"frozen dataclass {cls.name}; frozen "
                                "instances are immutable by contract")


@register_rule
class SolverExceptionRule(Rule):
    """RL006 — solver failures must be re-raised or recorded.

    Any ``except`` handler guarding a solver call (``solve_onion``,
    ``solve_wcde``, ``solve_rem``, ``map_time_slots``, ``plan``,
    ``robust_demand``) must either re-raise or leave a trace the
    degradation machinery can see: touch ``PlanStats.fallback``, append
    to an error ledger, bump fallback ``counts``, or ``record`` a fault
    event.  A handler that does none of these turns an
    ``InfeasiblePlanError`` into silent schedule corruption — the failure
    mode the graceful-degradation ladder exists to make observable.
    """

    rule_id = "RL006"
    name = "solver-exception"
    rationale = ("every failed solve must surface through the "
                 "degradation ladder's observable record")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        solver_names = ctx.config.solver_call_names
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            solver_call = None
            for stmt in node.body:
                for call in _walk_calls(stmt):
                    if _call_name(call.func) in solver_names:
                        solver_call = _call_name(call.func)
                        break
                if solver_call:
                    break
            if solver_call is None:
                continue
            for handler in node.handlers:
                if not _handler_records(handler):
                    yield self.finding(
                        ctx, handler,
                        f"handler around {solver_call}() swallows the "
                        "failure; re-raise or record it (PlanStats."
                        "fallback, an error ledger, or the fault log)")


@register_rule
class PublicAnnotationRule(Rule):
    """RL007 — public API in core/estimation is fully annotated.

    Every public function and method (including dunders) of a public
    class in the ``core`` and ``estimation`` packages must annotate all
    parameters and its return type — the same surface ``mypy --strict``
    gates in CI, checked here without needing mypy installed.  Nested
    helper functions and ``_private`` names are exempt.
    """

    rule_id = "RL007"
    name = "public-annotations"
    rationale = ("the strict-typing gate on the scheduler core starts "
                 "with complete signatures")

    @staticmethod
    def _is_public(name: str) -> bool:
        if name.startswith("__") and name.endswith("__"):
            return True
        return not name.startswith("_")

    def _check_function(self, ctx: FileContext,
                        fn: ast.FunctionDef, owner: str,
                        is_method: bool) -> Iterator[Finding]:
        missing = []
        args = fn.args
        positional = list(args.posonlyargs) + list(args.args)
        if is_method and positional:
            positional = positional[1:]  # self / cls
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append("*" + star.arg)
        if missing:
            yield self.finding(
                ctx, fn,
                f"{owner}{fn.name}() missing parameter annotation(s): "
                + ", ".join(missing))
        if fn.returns is None:
            yield self.finding(
                ctx, fn, f"{owner}{fn.name}() missing return annotation")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.config.is_annotated_api(ctx.path):
            return
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_public(node.name):
                    yield from self._check_function(ctx, node, "", False)
            elif isinstance(node, ast.ClassDef) and self._is_public(node.name):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        if self._is_public(item.name):
                            yield from self._check_function(
                                ctx, item, node.name + ".", True)


@register_rule
class BenchmarkDeterminismRule(Rule):
    """RL008 — benchmark fixtures must be seeded and clock-free.

    The perf gates compare runs across commits; a fixture drawing from
    an unseeded generator (``default_rng()`` with no seed, ``seed()``
    with no argument, stdlib ``random``) or stamping results with the
    wall clock produces incomparable numbers.  Applies to files under
    ``benchmarks/``, ``bench_*.py`` and fixture directories.
    """

    rule_id = "RL008"
    name = "benchmark-determinism"
    rationale = ("perf gates compare numbers across commits; fixtures "
                 "must be a pure function of their seed")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_benchmark:
            return
        imports = _ImportMap(ctx.tree)
        for call in _walk_calls(ctx.tree):
            name = _call_name(call.func)
            np_attr = imports.numpy_random_attr(call.func)
            seedless = not call.args and not call.keywords
            if seedless and (
                    (isinstance(call.func, ast.Name)
                     and call.func.id in imports.default_rng_names)
                    or np_attr == "default_rng"):
                yield self.finding(
                    ctx, call,
                    "default_rng() without a seed; benchmark fixtures "
                    "must pin their seed")
            elif name == "seed" and seedless and (
                    np_attr == "seed"
                    or imports.stdlib_random_call(call.func) == "seed"):
                yield self.finding(
                    ctx, call,
                    "seed() with no argument re-seeds from the OS; pin "
                    "an explicit seed")
            elif imports.stdlib_random_call(call.func) is not None:
                yield self.finding(
                    ctx, call,
                    "stdlib random draws from hidden global state; use "
                    "a seeded np.random.Generator")
        yield from _wall_clock_findings(self, ctx)


@register_rule
class ObsClockFreeRule(Rule):
    """RL009 — the observability package imports no clock at all.

    ``repro.obs`` timestamps spans with the simulator's *slot* counter
    and orders them with a monotonic sequence number, which is what makes
    traces and metric snapshots byte-identical across same-seed runs and
    therefore golden-file testable.  RL002 would already ban the wall
    clock but still admits ``time.perf_counter`` to time planner stages;
    the observability layer times nothing, so here *any* ``time`` or
    ``datetime`` import (module or from-import, including monotonic
    clocks) is a violation.  Real timestamps, if a deployment wants
    them, belong in the exporter consuming the JSONL — outside this
    package.
    """

    rule_id = "RL009"
    name = "obs-clock-free"
    rationale = ("slot-indexed, sequence-ordered telemetry is what makes "
                 "traces replayable and golden-testable; any clock "
                 "import re-introduces wall time")

    _BANNED = frozenset({"time", "datetime"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package != "obs":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._BANNED:
                        yield self.finding(
                            ctx, node,
                            f"import of {alias.name} in repro.obs; "
                            "telemetry is slot-indexed — no clock "
                            "module may be imported here")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                root = (node.module or "").split(".")[0]
                if root in self._BANNED:
                    names = ", ".join(a.name for a in node.names)
                    yield self.finding(
                        ctx, node,
                        f"from {node.module} import {names} in "
                        "repro.obs; telemetry is slot-indexed — no "
                        "clock module may be imported here")


@register_rule
class DurableWriteDisciplineRule(Rule):
    """RL015 — all service-side file writes go through the journal.

    The durability contract of :mod:`repro.service.journal` ("every
    accepted event is fsynced before it is applied; a crash can only
    tear the final record") holds only if the journal's atomic-append
    helper and :func:`~repro.service.journal.atomic_write_text` are the
    *only* ways bytes reach disk under ``repro.service`` — a stray
    ``open(path, "w")`` writes state that recovery knows nothing about
    and that no fault species exercises.  Inside the service package
    (``journal.py`` itself excepted) this flags ``open`` calls with a
    writable mode, ``os.open``/``os.write``/``os.fdopen``, and
    ``.write_text(...)``/``.write_bytes(...)`` method calls.  The check
    is syntactic: a non-literal mode argument is given the benefit of
    the doubt.
    """

    rule_id = "RL015"
    name = "durable-write-discipline"
    rationale = ("service-side writes outside the journal's fsync "
                 "discipline silently break crash recovery")

    #: The one file allowed to touch the filesystem directly.
    _ALLOWED_FILES = frozenset({"journal.py"})
    _OS_WRITERS = frozenset({"open", "write", "fdopen"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.package != "service":
            return
        if ctx.path.replace("\\", "/").rsplit("/", 1)[-1] \
                in self._ALLOWED_FILES:
            return
        for call in _walk_calls(ctx.tree):
            func = call.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._mode_argument(call)
                if mode is not None and any(c in mode for c in "wax+"):
                    yield self.finding(
                        ctx, call,
                        f"open(..., {mode!r}) under repro.service "
                        "bypasses the journal's fsync discipline; "
                        "route writes through repro.service.journal")
            elif (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                    and func.attr in self._OS_WRITERS):
                yield self.finding(
                    ctx, call,
                    f"os.{func.attr}(...) under repro.service bypasses "
                    "the journal's fsync discipline; route writes "
                    "through repro.service.journal")
            elif (isinstance(func, ast.Attribute)
                    and func.attr in ("write_text", "write_bytes")):
                yield self.finding(
                    ctx, call,
                    f".{func.attr}(...) under repro.service bypasses "
                    "the journal's fsync discipline; use "
                    "repro.service.journal.atomic_write_text")

    @staticmethod
    def _mode_argument(call: ast.Call) -> Optional[str]:
        mode: Optional[ast.expr] = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return None  # default "r": reads are fine
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: benefit of the doubt
