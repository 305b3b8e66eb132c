"""The rushlint analysis framework: findings, rules, suppressions, engine.

RUSH's correctness theorems survive only as long as a handful of
implementation invariants the Python type system cannot see: seeded-RNG
stream discipline (the fault injectors' monotone-coupling contract),
exact-float determinism (the incremental planner's bit-identical
cold/incremental equivalence), immutability of shared PMF arrays, and the
degradation ladder's no-silent-swallow rule for solver failures.  This
module supplies the machinery to check such invariants mechanically:

* :class:`Finding` — one diagnostic, pinned to ``path:line:col``;
* :class:`Rule` — the rule interface, registered via
  :func:`register_rule` into :data:`RULE_REGISTRY`;
* :class:`FileContext` — the parsed file a rule inspects (AST, source
  lines, package classification, suppression index);
* :func:`lint_source` / :func:`lint_file` / :func:`lint_paths` — the
  engine, applying every enabled rule to one file at a time and
  filtering suppressed findings.

Suppressions use the comment grammar::

    x = a == b  # rushlint: disable=RL003 (exact sentinel comparison)
    # rushlint: disable=RL003 (justification, may continue
    # over further comment lines)
    y = c == d
    # rushlint: disable-file=RL001

``disable=`` silences the listed rules (comma-separated, or ``all``) on
its own line; written as a *standalone* comment it applies to the next
non-comment line, so long justifications can precede the code they
excuse.  ``disable-file=`` anywhere in the file silences rules for the
whole file.  The parenthesized justification is free-form but expected
by review policy (see ``docs/LINTING.md``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from repro.lint.config import LintConfig

__all__ = [
    "Finding",
    "Rule",
    "FileContext",
    "RULE_REGISTRY",
    "register_rule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]

#: Rule id used for files that fail to parse; not a registered rule.
SYNTAX_ERROR_ID = "RL000"

_SUPPRESS_RE = re.compile(
    r"#\s*rushlint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)\s*(?:\(|$)")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule.

    Ordering is ``(path, line, col, rule_id)`` so reporter output is
    deterministic regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The canonical one-line text form ``path:line:col: ID message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule_id, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


class FileContext:
    """Everything a rule may inspect about one file.

    Attributes
    ----------
    path:
        The path findings are reported under (as given by the caller).
    tree:
        The parsed :class:`ast.Module`.
    lines:
        Source split into lines (1-indexed access via ``line(n)``).
    package:
        The file's ``repro`` sub-package (``"core"``, ``"faults"``, ...)
        or ``""`` when the path does not sit under a recognized package.
    config:
        The active :class:`~repro.lint.config.LintConfig`.
    """

    def __init__(self, path: str, source: str, tree: ast.Module,
                 config: LintConfig) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self.lines = source.splitlines()
        self.package = config.package_of(path)
        self.is_deterministic = config.is_deterministic(path)
        self.is_benchmark = config.is_benchmark(path)
        self.is_test = config.is_test(path)
        self.line_suppressions, self.file_suppressions = (
            _parse_suppressions(source))

    def line(self, lineno: int) -> str:
        """1-indexed source line (empty string out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed(self, rule_id: str, lineno: int) -> bool:
        """Whether ``rule_id`` is silenced at ``lineno``."""
        for ids in (self.file_suppressions,
                    self.line_suppressions.get(lineno, frozenset())):
            if "all" in ids or rule_id in ids:
                return True
        return False


class Rule(ABC):
    """One domain invariant checked over a file's AST.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings through :meth:`finding` so position bookkeeping
    stays uniform.  Registration (via :func:`register_rule`) makes the
    rule discoverable by id in CLI ``--select`` / ``--ignore`` filters
    and in suppression comments.
    """

    #: Stable identifier, ``RLnnn``.
    rule_id: str = ""
    #: Short human name shown by ``rush lint --list-rules``.
    name: str = ""
    #: Which paper-level invariant the rule protects (one sentence).
    rationale: str = ""

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every violation found in ``ctx``."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` at ``node``'s position."""
        return Finding(path=ctx.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       rule_id=self.rule_id, message=message)


#: All registered rules, keyed by ``rule_id``.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.rule_id or not re.fullmatch(r"RL\d{3}", cls.rule_id):
        raise ValueError(f"rule {cls.__name__} needs an RLnnn rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def _parse_suppressions(source: str):
    """Extract the suppression index from a file's comments.

    Returns ``(line_suppressions, file_suppressions)`` where the former
    maps line numbers to frozensets of rule ids (or ``{"all"}``).  Uses
    the tokenizer, not regex-over-lines, so a ``# rushlint:`` sequence
    inside a string literal is never misread as a directive.  A trailing
    directive suppresses its own line; a standalone comment directive
    suppresses the next line that is neither blank nor a comment.
    """
    per_line: Dict[int, frozenset] = {}
    whole_file: set = set()
    lines = source.splitlines()

    def target_line(directive_line: int, standalone: bool) -> int:
        if not standalone:
            return directive_line
        depth = 0
        for lineno in range(directive_line + 1, len(lines) + 1):
            stripped = lines[lineno - 1].strip()
            if not stripped or stripped.startswith("#"):
                continue
            # Decorator lines are skipped: a FunctionDef/ClassDef finding
            # reports at the `def`/`class` line (PEP 3.8+ lineno
            # semantics), so a directive above `@decorator` must land on
            # the def itself.  Bracket depth carries multi-line decorator
            # argument lists.
            if depth == 0 and not stripped.startswith("@"):
                return lineno
            depth += (stripped.count("(") + stripped.count("[")
                      - stripped.count(")") - stripped.count("]"))
            depth = max(depth, 0)
        return directive_line

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            ids = frozenset(
                part.strip() for part in match.group("rules").split(",")
                if part.strip())
            if match.group(1) == "disable-file":
                whole_file |= ids
            else:
                start_line, start_col = tok.start
                standalone = not lines[start_line - 1][:start_col].strip()
                lineno = target_line(start_line, standalone)
                per_line[lineno] = per_line.get(lineno, frozenset()) | ids
    except tokenize.TokenError:  # pragma: no cover - syntax errors handled later
        pass
    return per_line, frozenset(whole_file)


def _active_rules(config: LintConfig) -> List[Rule]:
    rules: List[Rule] = []
    for rule_id in sorted(RULE_REGISTRY):
        if config.enabled(rule_id):
            rules.append(RULE_REGISTRY[rule_id]())
    return rules


def lint_source(source: str, path: str = "<string>",
                config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint one source string; the core entry point the others wrap."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1, rule_id=SYNTAX_ERROR_ID,
                        message=f"syntax error: {exc.msg}")]
    ctx = FileContext(path, source, tree, config)
    findings: List[Finding] = []
    for rule in _active_rules(config):
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding.rule_id, finding.line):
                findings.append(finding)
    return sorted(findings)


def lint_file(path: str, config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, config=config)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``*.py`` paths."""
    seen = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for candidate in candidates:
            key = str(candidate)
            if key not in seen:
                seen.add(key)
                yield key


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint files and directory trees; directories are walked recursively."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, config=config))
    return sorted(findings)
