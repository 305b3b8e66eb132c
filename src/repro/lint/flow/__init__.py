"""Project-wide dataflow analysis for rushlint (rules RL011, RL012, RL014).

The per-file rules (RL001–RL009, RL015) see one AST at a time, so an unseeded
generator laundered through a helper module, a mutable global touched
two call hops below a planner entry point, or a swallowed
``SolverBudgetError`` caught under a different import alias all slip
through.  This subpackage closes that gap with a whole-program pass:

* :mod:`~repro.lint.flow.symbols` parses every file once into a
  per-module summary (imports, functions, call sites with taint
  dependencies, globals, raises/handlers);
* :mod:`~repro.lint.flow.callgraph` resolves dotted names through
  import chains and re-exports into a project call graph with
  reachability queries;
* :mod:`~repro.lint.flow.taint` runs the interprocedural RNG-provenance
  fixpoint (multi-hop ``source → … → sink`` paths);
* :mod:`~repro.lint.flow.purity` infers purity for everything reachable
  from the solve roots;
* :mod:`~repro.lint.flow.rules_flow` lands the results as rules
  RL011, RL012 and RL014 on the ordinary :class:`~repro.lint.framework.Finding`
  plumbing, so ``--select``, suppressions and the JSON reporter work
  unchanged.

Entry points: :func:`~repro.lint.flow.rules_flow.lint_paths` (every
rule, what ``rush lint`` runs) and
:func:`~repro.lint.flow.rules_flow.lint_project` (the flow rules alone).
"""

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.rules_flow import (FlowRule, ProjectContext, lint_paths,
                                        lint_project)
from repro.lint.flow.symbols import FlowIndex, ModuleSummary, build_index

__all__ = [
    "FlowIndex",
    "ModuleSummary",
    "build_index",
    "CallGraph",
    "FlowRule",
    "ProjectContext",
    "lint_paths",
    "lint_project",
]
