"""What a ``rush`` command may load: numpy, and nothing it does not use.

The §III-B LP baseline (``tests/tas_lp.py``) is a test oracle, not part
of the package: re-exported, it once made every command pay for
``scipy.optimize`` (0.3 s, 40 MB) to schedule nothing with it.  The
Gaussian estimator's CDF used to import ``scipy.special`` lazily, at the
first tick that estimated (20 MB, 0.25 s); it is stdlib ``math.erf`` now.
Because that import was lazy, a bare ``import repro.cli`` proves nothing:
the probe also runs a RUSH tick that builds a Gaussian PMF and a WAL
recovery, each in a fresh interpreter (this process has long since
imported everything), and once more with a finder that makes scipy look
uninstalled — the path must still run and land on the same digest.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Set

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_JOURNAL = Path(__file__).parent / "golden" / "journal_parent"

PROBE = """
import importlib.util, json, sys

action, mode = sys.argv[1], sys.argv[2]
# What no shipped command may load: scipy, the LP oracle (it lives in
# tests/) and the retired flow-lint engine (it must stay gone, not come
# back as a lazy import).
UNWANTED = ("repro.core.tas_lp", "repro.lint.flow")


class RefuseScipy:
    \"\"\"A finder that makes scipy look uninstalled.\"\"\"

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


if mode == "refuse-scipy":
    sys.meta_path.insert(0, RefuseScipy())

import repro.cli
from repro.estimation import pmf

erf, cdfs = pmf._erf, []


def counting_erf(z):
    cdfs.append(z.size)
    return erf(z)


pmf._erf = counting_erf
report = {}
if action == "import":
    try:
        from repro import solve_tas_lp
        report["reexported"] = True
    except ImportError:
        report["reexported"] = False
    report["lp_oracle_importable"] = (
        importlib.util.find_spec("repro.core.tas_lp") is not None)
    engine = None
elif action == "tick":
    from repro.service.engine import ServiceConfig, ServiceEngine
    engine = ServiceEngine(ServiceConfig(
        capacity=3, policy="rush", seed=0,
        scheduler_options={"theta": 0.9, "delta": 0.7}))
    for slot in range(4):
        engine.submit({"task_durations": [4 + slot, 6, 5],
                       "budget": 25.0 + slot})
    engine.tick(12)
else:
    from repro.service.journal import recover_engine
    engine, _ = recover_engine(sys.argv[3])
if engine is not None:
    report["digests"] = [engine.decisions_digest(), engine.records_digest()]
    engine.close()
report["gaussian_cdfs"] = len(cdfs)
report["loaded"] = sorted(n for n in sys.modules
                          if n.split(".")[0] == "scipy" or n in UNWANTED)
print(json.dumps(report))
"""


def _probe(action: str, mode: str = "plain", *args: str) -> Dict[str, Any]:
    """Run ``PROBE`` in a fresh interpreter and return its report."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, action, mode, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _parent_journal(directory: Path) -> str:
    """A fresh copy of the golden journal (recovery may append to it)."""
    shutil.copytree(GOLDEN_JOURNAL, directory)
    (directory / "expected.json").unlink()
    (directory / "README.md").unlink()
    return str(directory)


def test_cli_import_graph_excludes_the_lp_oracle_and_flow_lint():
    assert _probe("import") == {
        "reexported": False, "lp_oracle_importable": False,
        "gaussian_cdfs": 0, "loaded": []}


def test_a_rush_tick_that_estimates_loads_no_scipy():
    report = _probe("tick")
    assert report["gaussian_cdfs"] > 0 and report["loaded"] == []


def test_recovering_the_parent_journal_loads_no_scipy(tmp_path):
    expected = json.loads((GOLDEN_JOURNAL / "expected.json").read_text())
    report = _probe("recover", "plain", _parent_journal(tmp_path / "wal"))
    assert report["gaussian_cdfs"] > 0 and report["loaded"] == []
    assert report["digests"] == [expected["decisions_digest"],
                                 expected["records_digest"]]


@pytest.mark.parametrize("action", ["tick", "recover"])
def test_the_engine_runs_and_decides_the_same_without_scipy(tmp_path, action):
    def run(mode: str) -> Dict[str, Any]:
        if action == "tick":
            return _probe(action, mode)
        return _probe(action, mode, _parent_journal(tmp_path / mode))

    plain, refused = run("plain"), run("refuse-scipy")
    assert plain["gaussian_cdfs"] > 0
    assert refused == plain


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


# The local stand-in for "a plan depends on its snapshot, not the wall
# clock": the deterministic core reads no clock.  planner.py keeps
# ``time`` for the PlanStats stage seconds, which are reported and never
# decided on.

_CLOCK_MODULES = {"time", "datetime"}


def test_no_core_module_but_the_planner_imports_a_clock():
    offenders = []
    for path in sorted((SRC / "repro" / "core").rglob("*.py")):
        if path.name == "planner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            offenders += [f"{path.relative_to(SRC)}:{node.lineno}: {root}"
                          for root in roots if root in _CLOCK_MODULES]
    assert not offenders, (
        "a wall-clock import in the deterministic core:\n"
        + "\n".join(offenders))


# The local stand-in for "one utility inverse per class": the core reads
# a job's utility only through UtilityFunction (PARAMS, inverse, the
# ceiling rule), so no module under repro/core may import or name a
# concrete class and branch on it.

_UTILITY_CLASS_MODULES = {"linear", "sigmoid", "constant", "step",
                          "piecewise"}
_UTILITY_CLASSES = {"LinearUtility", "SigmoidUtility", "ConstantUtility",
                    "StepUtility", "PiecewiseUtility"}


def test_no_core_module_imports_or_names_a_utility_class():
    offenders = []
    for path in sorted((SRC / "repro" / "core").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                modules = []
            hits = [module for module in modules
                    if module.startswith("repro.utility.")
                    and module.split(".")[2] in _UTILITY_CLASS_MODULES]
            if isinstance(node, ast.Name) and node.id in _UTILITY_CLASSES:
                hits.append(node.id)
            if isinstance(node, ast.alias) and node.name in _UTILITY_CLASSES:
                hits.append(node.name)
            offenders += [f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}:"
                          f" {hit}" for hit in hits]
    assert not offenders, (
        "a concrete utility class in the core (read PARAMS / inverse "
        "instead):\n" + "\n".join(offenders))


# The local stand-in for "one memo tier in front of WCDE": the planner's
# content-addressed WcdeCache answers every robust-demand lookup.
# IncrementalPlanner survives only as an inert name the perf ledger
# constructs, so nothing in the package may come to depend on it again.

_INERT_SESSION_HOMES = {"repro/__init__.py", "repro/core/__init__.py",
                        "repro/core/planner.py"}


def test_only_the_planner_and_its_re_exports_name_incremental_planner():
    naming = [path.relative_to(SRC).as_posix()
              for path in sorted((SRC / "repro").rglob("*.py"))
              if "IncrementalPlanner" in path.read_text(encoding="utf-8")]
    assert set(naming) <= _INERT_SESSION_HOMES, (
        "IncrementalPlanner is a pass-through kept for the perf ledger; "
        "call RushPlanner.plan instead:\n"
        + "\n".join(sorted(set(naming) - _INERT_SESSION_HOMES)))


# The local stand-in for "one way to survive a restart": the write-ahead
# journal.  service/snapshot.py is the codec for its anchor.json, so only
# the journal freezes, reads or replays one.  Calls are checked, not
# imports: cli.py and daemon.py keep a name the perf ledger rebinds.

_SNAPSHOT_CODEC = {"take_snapshot", "restore_engine", "load_snapshot"}


def test_only_the_journal_reads_or_writes_a_snapshot():
    callers = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.relative_to(SRC).as_posix() == "repro/service/journal.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in _SNAPSHOT_CODEC:
                callers.append(f"{path.relative_to(SRC)}:{node.lineno}: "
                               f"{name}(")
    assert not callers, (
        "the journal's anchor is the only snapshot; restart through "
        "open_journal / recover_engine:\n" + "\n".join(callers))
