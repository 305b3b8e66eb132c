"""What a ``rush`` command may load: the product never imports its oracles.

``repro.core.tas_lp`` (the §III-B LP baseline) is a reference the tests
and one ablation bench compare against; re-exporting it from
``repro.core`` made every command, ``import repro`` and every
``ServiceClient`` user pay for ``scipy.optimize`` (0.3 s, 40 MB) to
schedule nothing with it.  A fresh interpreter is the only honest probe:
this process has long since imported everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no shipped command needs (the retired flow-lint engine among
#: them: it must stay gone, not come back as a lazy import).
UNWANTED = ("scipy.optimize", "scipy.sparse", "scipy.linalg",
            "repro.core.tas_lp", "repro.lint.flow")

PROBE = """
import json, sys
import repro.cli
loaded = [name for name in {unwanted!r} if name in sys.modules]
try:
    from repro import solve_tas_lp
    reexported = True
except ImportError:
    reexported = False
# ... while the oracle is still there for whoever names it in full.
from repro.core.tas_lp import lp_feasible, solve_tas_lp
print(json.dumps({{"loaded": loaded, "reexported": reexported}}))
"""


def test_cli_import_graph_excludes_the_lp_oracle_and_flow_lint():
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(unwanted=UNWANTED)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == {"loaded": [], "reexported": False}


# ---------------------------------------------------------------------------
# The local stand-in for ruff's F401 (ROADMAP 10(v): ruff is not installed
# here, and a deletion PR's mechanical risk is the import it left behind).

def _module_level_imports(tree: ast.Module, lines: List[str]
                          ) -> Dict[str, int]:
    """Names bound by imports at module level (``if``/``try`` included),
    minus the lines that waive the rule the way ruff reads it
    (``# noqa: F401`` — an import kept for its side effect)."""
    bound: Dict[str, int] = {}
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                pending += handler.body
        elif "noqa: F401" in lines[node.lineno - 1]:
            continue
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _names_used(tree: ast.Module) -> Set[str]:
    """Every identifier the module reads, string annotations and the
    entries of ``__all__`` included."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``__all__`` entries and quoted annotations are both plain
            # strings; a string that parses as an expression contributes
            # its names (prose does not parse, or names nothing imported).
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return used


def test_no_module_under_src_keeps_an_import_it_does_not_use():
    unused = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        used = _names_used(tree)
        bound = _module_level_imports(tree, source.splitlines())
        unused += [f"{path.relative_to(SRC)}:{line}: {name}"
                   for name, line in bound.items() if name not in used]
    assert not unused, "imported but unused:\n" + "\n".join(sorted(unused))


# The local stand-in for "a series is declared once": product code emits
# through repro.obs.count / set_gauge / observe with a CATALOG name, so a
# registry getter called anywhere else is an inline declaration coming back.

def test_no_series_is_declared_outside_repro_obs():
    inline = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.parent.name == "obs":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inline += [f"{path.relative_to(SRC)}:{node.lineno}: .{node.func.attr}("
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("counter", "gauge", "histogram")]
    assert not inline, (
        "declare the series in repro.obs.metrics.CATALOG and emit it with "
        "obs.count / obs.set_gauge / obs.observe:\n" + "\n".join(inline))
