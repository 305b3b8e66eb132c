"""Rendering lint findings: the text and JSON reporters.

The text form is the compiler-style ``path:line:col: RLnnn message``
stream humans and editors parse; the JSON form is a versioned,
schema-stable document CI artifacts and downstream tooling consume
(``tests/test_lint.py`` pins the schema).
"""

from __future__ import annotations

import json
from typing import Dict, Sequence

from repro.lint.framework import RULE_REGISTRY, Finding

__all__ = ["render_text", "render_json", "render_rule_catalog",
           "JSON_SCHEMA_VERSION"]

#: Bumped whenever a field is added to or removed from the JSON report.
JSON_SCHEMA_VERSION = 1


def render_text(findings: Sequence[Finding], *,
                checked_files: int = 0) -> str:
    """One line per finding plus a summary tail line."""
    lines = [finding.render() for finding in findings]
    noun = "file" if checked_files == 1 else "files"
    if findings:
        by_rule = _counts(findings)
        breakdown = ", ".join(f"{rule}: {count}"
                              for rule, count in sorted(by_rule.items()))
        lines.append(f"{len(findings)} finding(s) in {checked_files} "
                     f"{noun} ({breakdown})")
    else:
        lines.append(f"clean: 0 findings in {checked_files} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], *,
                checked_files: int = 0) -> str:
    """The versioned machine-readable report (sorted, reproducible)."""
    document = {
        "version": JSON_SCHEMA_VERSION,
        "checked_files": checked_files,
        "total": len(findings),
        "counts": _counts(findings),
        "findings": [finding.to_dict() for finding in sorted(findings)],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """The ``--list-rules`` table: id, name, rationale."""
    lines = []
    for rule_id in sorted(RULE_REGISTRY):
        rule = RULE_REGISTRY[rule_id]
        lines.append(f"{rule_id}  {rule.name}")
        lines.append(f"       {rule.rationale}")
    return "\n".join(lines)


def _counts(findings: Sequence[Finding]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for finding in findings:
        out[finding.rule_id] = out.get(finding.rule_id, 0) + 1
    return out
