"""The ``rush lint`` subcommand.

Exit codes follow the convention of the other gates: ``0`` clean,
``1`` findings reported, ``2`` usage error (unknown rule id, missing
path).  Wired into the main parser by :mod:`repro.cli`; kept here so
the lint subsystem is self-contained and importable without the rest of
the CLI.

One invocation runs every registered rule (RL001–RL009, RL015) on each
file and prints one sorted report.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Sequence

from repro.lint.config import LintConfig
from repro.lint.framework import (RULE_REGISTRY, iter_python_files,
                                  lint_paths)
from repro.lint.reporters import render_json, render_rule_catalog, render_text

__all__ = ["add_lint_arguments", "run_lint_command"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``rush lint`` arguments to a subparser."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", nargs="+", metavar="RULE",
                        help="check only these rule ids")
    parser.add_argument("--ignore", nargs="+", metavar="RULE", default=[],
                        help="skip these rule ids")
    parser.add_argument("--exclude", nargs="+", metavar="FRAGMENT",
                        default=[],
                        help="skip files whose path contains any of these "
                             "fragments (e.g. lint_fixtures)")
    parser.add_argument("--as-package", dest="as_package",
                        help="classify every file as this repro sub-package "
                             "(for out-of-tree snippets)")
    parser.add_argument("--as-benchmark", action="store_true",
                        help="treat every file as a benchmark fixture "
                             "(forces RL008 context)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def _validated_rules(ids: List[str]) -> frozenset:
    unknown = [rule_id for rule_id in ids if rule_id not in RULE_REGISTRY]
    if unknown:
        raise ValueError(
            "unknown rule id(s): " + ", ".join(sorted(unknown))
            + "; known: " + ", ".join(sorted(RULE_REGISTRY)))
    return frozenset(ids)


def _selected_files(paths: Sequence[str],
                    exclude: Sequence[str]) -> List[str]:
    files = []
    for path in iter_python_files(paths):
        if any(fragment in path for fragment in exclude):
            continue
        files.append(path)
    return files


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute ``rush lint`` for parsed arguments; returns the exit code."""
    if args.list_rules:
        print(render_rule_catalog())
        return 0
    try:
        select = _validated_rules(args.select) if args.select else None
        ignore = _validated_rules(args.ignore) if args.ignore else frozenset()
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    config = LintConfig(select=select, ignore=ignore,
                        package_override=args.as_package,
                        benchmark_override=args.as_benchmark)
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print("error: no such path(s): " + ", ".join(missing))
        return 2
    files = _selected_files(args.paths, args.exclude)
    findings = lint_paths(files, config=config)
    if args.format == "json":
        print(render_json(findings, checked_files=len(files)))
    else:
        print(render_text(findings, checked_files=len(files)))
    return 1 if findings else 0
