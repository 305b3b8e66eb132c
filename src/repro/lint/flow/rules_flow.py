"""Flow rules RL011, RL012, RL014 and the project-level lint engine.

These rules subclass :class:`FlowRule`, a :class:`~repro.lint.
framework.Rule` whose per-file ``check`` is a no-op: they fire once per
run over the whole file set, handed a :class:`ProjectContext` (symbol
index + call graph + shared analyses).  Because they live in the
ordinary ``RULE_REGISTRY`` and emit ordinary ``Finding`` objects,
``--select``/``--ignore``, suppression comments, and both reporters
work on them unchanged.  :func:`lint_paths` is the one engine behind
``rush lint``: every per-file rule on each file, then every flow rule
over the same files, one sorted report.

The three invariants (RL013 was retired with the process pool):

* **RL011 rng-provenance** — every value drawn in a deterministic
  package must derive from a seeded generator; violations render the
  full cross-module ``source → hop → … → sink`` path.
* **RL012 solve-path-purity** — nothing reachable from a solver entry
  point (``plan``/``solve_*``/``map_time_slots``/``robust_demand`` in a
  deterministic package) may write module globals, read the wall
  clock, or perform I/O — wherever it lives.
* **RL014 solver-exception-flow** — ``SolverBudgetError``-family raises
  must have a recording path into the degradation ladder, and no
  ``except`` in ``core``/``schedulers`` may swallow the family
  silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.framework import (RULE_REGISTRY, SYNTAX_ERROR_ID, Finding,
                                  FileContext, Rule, iter_python_files,
                                  lint_file, register_rule)
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.purity import ImpurityFinding, analyze_purity
from repro.lint.flow.symbols import FlowIndex, ModuleSummary, build_index
from repro.lint.flow.taint import TaintAnalysis, analyze_taint

__all__ = ["FlowRule", "ProjectContext", "lint_project", "lint_paths"]

#: Packages whose ``except`` clauses RL014 audits for swallowed solver
#: failures (mirrors the degradation ladder's home turf).
_EXCEPTION_AUDIT_PACKAGES = frozenset({"core", "schedulers"})

#: The solver failure family's terminal class name (resolved through
#: base-class chains so subclasses and re-exports count).
_FAMILY_TERMINAL = "SolverBudgetError"

#: Exception names that catch the family via the class hierarchy.
_BROAD_TERMINALS = frozenset({"Exception", "BaseException", "ReproError"})

#: Builtin callables never treated as dynamic dispatch by RL014.
_KNOWN_BUILTINS = frozenset({
    "len", "range", "str", "int", "float", "bool", "list", "dict", "set",
    "tuple", "sorted", "min", "max", "sum", "abs", "enumerate", "zip",
    "map", "filter", "isinstance", "issubclass", "getattr", "setattr",
    "hasattr", "repr", "print", "open", "iter", "next", "round", "any",
    "all", "type", "id", "vars", "format",
})


@dataclass
class ProjectContext:
    """What a flow rule sees: the whole program, pre-digested."""

    index: FlowIndex
    graph: CallGraph
    config: LintConfig
    _taint: Optional[TaintAnalysis] = field(default=None, repr=False)
    _purity: Optional[List[ImpurityFinding]] = field(default=None,
                                                     repr=False)

    def taint(self) -> TaintAnalysis:
        if self._taint is None:
            self._taint = analyze_taint(self.graph)
        return self._taint

    def purity(self) -> List[ImpurityFinding]:
        if self._purity is None:
            self._purity = analyze_purity(self.graph, self.config)
        return self._purity


class FlowRule(Rule):
    """A rule that needs the whole program, not one file.

    The per-file engine instantiates every registered rule, so
    :meth:`check` must exist — it yields nothing.  The real work
    happens in :meth:`project_check`, invoked by :func:`lint_project`.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def project_check(self, ctx: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(self, path: str, line: int,
                        message: str) -> Finding:
        return Finding(path=path, line=line, col=1,
                       rule_id=self.rule_id, message=message)


@register_rule
class RngProvenanceRule(FlowRule):
    """RL011: cross-module unseeded-RNG provenance."""

    rule_id = "RL011"
    name = "rng-provenance"
    rationale = ("Theorem-level determinism holds only if every random "
                 "draw in the solve path derives from a seeded "
                 "Generator; per-file RL001 cannot see laundering "
                 "through helper modules, this pass can.")

    def project_check(self, ctx: ProjectContext) -> Iterator[Finding]:
        for violation in ctx.taint().findings:
            if not ctx.config.is_deterministic(violation.path):
                continue
            yield self.project_finding(
                violation.path, violation.line,
                f"{violation.message}; taint path: "
                f"{violation.render_chain()}")


@register_rule
class SolvePathPurityRule(FlowRule):
    """RL012: impurity reachable from a solver entry point."""

    rule_id = "RL012"
    name = "solve-path-purity"
    rationale = ("The incremental planner is bit-identical to the cold "
                 "path only if everything reachable from the solve "
                 "roots is a pure function of its inputs — including "
                 "helpers outside the deterministic packages.")

    def project_check(self, ctx: ProjectContext) -> Iterator[Finding]:
        for imp in ctx.purity():
            chain = " -> ".join(imp.chain)
            yield self.project_finding(
                imp.path, imp.line,
                f"{imp.kind} on the solve path: {imp.detail} "
                f"[reached via {chain}]")


def _terminal(fq: str) -> str:
    return fq.rsplit(".", 1)[-1]


@register_rule
class SolverExceptionFlowRule(FlowRule):
    """RL014: solver failures must reach the degradation ladder."""

    rule_id = "RL014"
    name = "solver-exception-flow"
    rationale = ("Graceful degradation (primary -> cold_exact -> "
                 "last_good -> greedy_edf) only engages if every "
                 "SolverBudgetError propagates to a recording handler; "
                 "a swallowed or unreachable raise turns a planned "
                 "fallback into silent corruption.")

    def project_check(self, ctx: ProjectContext) -> Iterator[Finding]:
        graph = ctx.graph
        raisers = self._family_raisers(ctx)
        covered, covers_all = self._coverage(ctx, raisers)

        for fq in sorted(graph.functions):
            summary, info = graph.functions[fq]
            package = ctx.config.package_of(summary.path)
            # (a) swallow check in the audited packages.
            if package in _EXCEPTION_AUDIT_PACKAGES:
                for handler in info.get("handlers", ()):
                    yield from self._check_handler(
                        ctx, summary, fq, info, handler, raisers)
            # (b) orphan raises: the family must reach a ladder handler.
            if covers_all:
                continue
            for raise_site in info.get("raises", ()):
                if not self._is_family(graph, raise_site["exc"]):
                    continue
                if fq in covered:
                    continue
                yield self.project_finding(
                    summary.path, raise_site["line"],
                    f"{_terminal(raise_site['exc'])} raised here has no "
                    f"path into the degradation ladder: no recording "
                    f"handler catches the solver family on any call "
                    f"chain reaching {_terminal(fq)}()")

    # -- helpers ------------------------------------------------------

    def _is_family(self, graph: CallGraph, exc_fq: str) -> bool:
        """Whether ``exc_fq`` is SolverBudgetError or a subclass."""
        if _terminal(exc_fq) == _FAMILY_TERMINAL:
            return True
        resolved = graph._resolve_class(exc_fq)
        seen: Set[str] = set()
        while resolved is not None and resolved not in seen:
            seen.add(resolved)
            if _terminal(resolved) == _FAMILY_TERMINAL:
                return True
            bases = graph.classes.get(resolved, (None, {}))[1].get(
                "bases", ())
            resolved = None
            for base in bases:
                if _terminal(base) == _FAMILY_TERMINAL:
                    return True
                candidate = graph._resolve_class(base)
                if candidate is not None:
                    resolved = candidate
                    break
        return False

    def _catches_family(self, graph: CallGraph,
                        handler: Dict[str, Any]) -> Tuple[bool, bool]:
        """(catches_family, is_broad) for one except clause."""
        if handler.get("bare"):
            return True, True
        broad = False
        for type_fq in handler.get("types", ()):
            if self._is_family(graph, type_fq):
                return True, False
            if _terminal(type_fq) in _BROAD_TERMINALS:
                broad = True
        return broad, broad

    def _family_raisers(self, ctx: ProjectContext) -> Set[str]:
        """Functions that (transitively) raise the solver family."""
        graph = ctx.graph
        raisers: Set[str] = set()
        for fq, (_summary, info) in graph.functions.items():
            for raise_site in info.get("raises", ()):
                if self._is_family(graph, raise_site["exc"]):
                    raisers.add(fq)
                    break
        changed = True
        while changed:
            changed = False
            for caller, callees in graph.edges.items():
                if caller in raisers:
                    continue
                if any(callee in raisers for callee, _line in callees):
                    raisers.add(caller)
                    changed = True
        return raisers

    def _check_handler(self, ctx: ProjectContext, summary: ModuleSummary,
                       fq: str, info: Dict[str, Any],
                       handler: Dict[str, Any],
                       raisers: Set[str]) -> Iterator[Finding]:
        catches, broad = self._catches_family(ctx.graph, handler)
        if not catches or handler.get("records"):
            return
        if broad:
            # A broad catch only concerns RL014 when the try body can
            # actually raise the family.
            guarded_hits = [g for g in handler.get("guarded", ())
                            if ctx.graph.resolve(g) in raisers]
            if not guarded_hits:
                return
            culprit = _terminal(guarded_hits[0])
            yield self.project_finding(
                summary.path, handler["line"],
                f"broad except swallows the SolverBudgetError family "
                f"raised by {culprit}() without recording a fallback; "
                f"re-raise or route it into the degradation ladder")
            return
        yield self.project_finding(
            summary.path, handler["line"],
            f"except catches the SolverBudgetError family without "
            f"recording a fallback; the degradation ladder never "
            f"sees the failure")

    def _coverage(self, ctx: ProjectContext,
                  raisers: Set[str]) -> Tuple[Set[str], bool]:
        """Raise coverage: functions guarded by a recording handler.

        Returns ``(covered_functions, covers_all)``; the latter is set
        when a recording family handler guards a *dynamic* call (a bare
        callable parameter or local, as in the degradation ladder's
        ``attempt()`` dispatch) that static resolution cannot follow —
        we then assume the ladder can reach any raise site rather than
        flood the report with false orphans.
        """
        graph = ctx.graph
        roots: Set[str] = set()
        covers_all = False
        for fq, (_summary, info) in graph.functions.items():
            for handler in info.get("handlers", ()):
                catches, _broad = self._catches_family(graph, handler)
                if not catches or not handler.get("records"):
                    continue
                for guarded in handler.get("guarded", ()):
                    node = graph.resolve(guarded)
                    if node is not None:
                        roots.add(node)
                    elif ("." not in guarded
                          and guarded not in _KNOWN_BUILTINS
                          and guarded[:1].islower()):
                        covers_all = True
        covered = set(graph.reachable_from(sorted(roots)))
        return covered, covers_all


def _flow_findings(index: FlowIndex, config: LintConfig) -> List[Finding]:
    """Apply every enabled flow rule to ``index``, minus suppressions."""
    ctx = ProjectContext(index=index, graph=CallGraph(index), config=config)
    findings: List[Finding] = []
    for rule_id in sorted(RULE_REGISTRY):
        rule_cls = RULE_REGISTRY[rule_id]
        if not issubclass(rule_cls, FlowRule) or not config.enabled(rule_id):
            continue
        for finding in rule_cls().project_check(ctx):
            summary = index.by_path(finding.path)
            if summary is None or not summary.suppressed(
                    finding.rule_id, finding.line):
                findings.append(finding)
    return findings


def lint_project(paths: Sequence[str],
                 config: Optional[LintConfig] = None) -> List[Finding]:
    """Run only the flow rules over a project tree.

    Files that fail to parse are reported as ``RL000``.
    """
    config = config or LintConfig()
    index = build_index(paths)
    findings = [Finding(path=path, line=1, col=1, rule_id=SYNTAX_ERROR_ID,
                        message=message)
                for path, message in index.broken.items()]
    return sorted(findings + _flow_findings(index, config))


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint files and directory trees with every enabled rule.

    The per-file rules run on each file (which also reports syntax
    errors, so the index's ``broken`` table is not repeated), then the
    flow rules run once over the same file set.
    """
    config = config or LintConfig()
    files = list(iter_python_files(paths))
    findings: List[Finding] = []
    for path in files:
        findings.extend(lint_file(path, config=config))
    findings.extend(_flow_findings(build_index(files), config))
    return sorted(findings)
