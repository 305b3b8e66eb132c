"""rushlint: domain-aware static analysis for the RUSH scheduler core.

The paper's guarantees hold only while the implementation preserves
invariants the type system cannot see — seeded-RNG stream discipline,
exact-float determinism, immutable shared PMFs, and the degradation
ladder's no-silent-swallow rule.  This package checks them mechanically:

>>> from repro.lint import lint_paths, render_text
>>> findings = lint_paths(["src/repro"])   # doctest: +SKIP

or from the CLI: ``rush lint src/repro`` (exit 0 = clean).  The rule
catalog with per-rule rationale lives in ``docs/LINTING.md``; importing
:mod:`repro.lint.rules` (done here) populates the registry.
"""

from repro.lint.config import LintConfig
from repro.lint.framework import (Finding, Rule, RULE_REGISTRY, lint_file,
                                  lint_paths, lint_source, register_rule)
from repro.lint import rules as _rules  # noqa: F401  (registers RL001-RL009, RL015)
from repro.lint.reporters import (JSON_SCHEMA_VERSION, render_json,
                                  render_rule_catalog, render_text)

__all__ = [
    "LintConfig",
    "Finding",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
    "render_rule_catalog",
    "JSON_SCHEMA_VERSION",
]
