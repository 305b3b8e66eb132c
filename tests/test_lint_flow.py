"""Tests for the project-wide dataflow rules (RL011, RL012, RL014).

Covers positive + negative fixtures for each flow rule, multi-hop taint
paths with file:line hops, the cross-module laundering fixture (unseeded
caught, seeded twin passes), file-level suppressions that must not leak
through the shared index, the one-engine contract (``rush lint`` reports
per-file and flow findings in one sorted report), the evidence that the
per-file twins RL001/RL006 are not subsumed by RL011/RL014, and the CLI
surface.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import LintConfig, lint_paths, lint_project
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.symbols import (build_index, extract_module,
                                     module_name_for)
from repro.lint.flow.taint import analyze_taint

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: Flow rule -> (config, pinned positive-fixture finding count).
FLOW_RULE_CASES = {
    "RL011": (LintConfig(package_override="core"), 2),
    "RL012": (LintConfig(package_override="core"), 2),
    "RL014": (LintConfig(package_override="core"), 2),
}


def _flow_findings(rule_id, kind):
    config, _ = FLOW_RULE_CASES[rule_id]
    config = LintConfig(package_override=config.package_override,
                        select=frozenset({rule_id}))
    path = FIXTURES / f"{rule_id.lower()}_{kind}.py"
    return lint_project([str(path)], config=config)


# ---------------------------------------------------------------------------
# Per-rule fixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule_id", sorted(FLOW_RULE_CASES))
def test_positive_fixture_fires(rule_id):
    findings = _flow_findings(rule_id, "pos")
    assert len(findings) == FLOW_RULE_CASES[rule_id][1]
    for finding in findings:
        assert finding.rule_id == rule_id
        assert finding.line >= 1
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(FLOW_RULE_CASES))
def test_negative_fixture_is_silent(rule_id):
    assert _flow_findings(rule_id, "neg") == []


def test_taint_finding_renders_multi_hop_path():
    findings = _flow_findings("RL011", "pos")
    laundered = [f for f in findings if "fresh_stream" not in f.message
                 and "default_rng" in f.message]
    assert laundered, [f.message for f in findings]
    message = laundered[0].message
    # Three hops, each with file:line — source, return, sink.
    assert message.count("rl011_pos.py:") >= 3
    assert "entropy source" in message
    assert "returned to caller" in message
    assert " -> " in message


def test_purity_finding_names_the_witness_chain():
    findings = _flow_findings("RL012", "pos")
    assert any("rl012_pos.plan -> rl012_pos._stamp" in f.message
               for f in findings)


def test_exception_flow_flags_swallow_and_orphan():
    messages = [f.message for f in _flow_findings("RL014", "pos")]
    assert any("no path into the degradation ladder" in m
               for m in messages)
    assert any("without recording a fallback" in m for m in messages)


# ---------------------------------------------------------------------------
# Cross-module laundering (the headline acceptance case)
# ---------------------------------------------------------------------------

def _flow_project_findings():
    config = LintConfig(package_override="core",
                        select=frozenset({"RL011"}))
    return lint_project([str(FIXTURES / "flow_project")], config=config)


def test_cross_module_laundering_is_caught():
    findings = _flow_project_findings()
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path.endswith("pipeline.py")
    # The taint path crosses the module boundary with file:line hops.
    assert "streams.py:" in finding.message
    assert "pipeline.py:" in finding.message
    assert "unseeded default_rng() entropy source" in finding.message


def test_seeded_twin_passes():
    findings = _flow_project_findings()
    # seeded_plan (lines 17-19) must produce nothing.
    assert all(f.line < 15 for f in findings)


def test_file_level_suppression_does_not_leak_to_sibling():
    config = LintConfig(package_override="core",
                        select=frozenset({"RL011"}))
    findings = lint_project([str(FIXTURES / "flow_leak")], config=config)
    assert [Path(f.path).name for f in findings] == ["sibling.py"]


def test_line_suppression_silences_flow_finding(tmp_path):
    source = ("import numpy as np\n"
              "def draw():\n"
              "    rng = np.random.default_rng()\n"
              "    return rng.normal()"
              "  # rushlint: disable=RL011 (fixture)\n")
    target = tmp_path / "mod.py"
    target.write_text(source)
    config = LintConfig(package_override="core",
                        select=frozenset({"RL011"}))
    assert lint_project([str(target)], config=config) == []


# ---------------------------------------------------------------------------
# Symbol index
# ---------------------------------------------------------------------------

def test_module_name_for_repro_and_flat_paths():
    assert module_name_for("src/repro/core/wcde.py") == "repro.core.wcde"
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for("/tmp/fix/helpers.py") == "helpers"


def test_summary_captures_imports_globals_and_suppressions(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "# rushlint: disable-file=RL012\n"
        "import numpy as np\n"
        "from collections import OrderedDict\n"
        "TABLE = {}\n"
        "LIMIT = 3\n"
        "def f(x):\n"
        "    return x\n")
    summary = extract_module(str(target))
    assert summary.imports["np"] == "numpy"
    assert {"TABLE", "LIMIT"} <= summary.globals
    assert summary.suppress_file == {"RL012"}
    assert summary.suppressed("RL012", 99)
    assert not summary.suppressed("RL011", 99)
    assert "f" in summary.functions


def test_repeat_run_produces_identical_findings():
    config = LintConfig(package_override="core",
                        select=frozenset({"RL011"}))
    paths = [str(FIXTURES / "flow_project")]
    first = lint_project(paths, config=config)
    assert lint_project(paths, config=config) == first and len(first) == 1


def test_syntax_error_reports_rl000(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    findings = lint_project([str(target)])
    assert [f.rule_id for f in findings] == ["RL000"]


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------

def test_callgraph_resolves_reexports(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from pkg.inner import solve\n")
    (pkg / "inner.py").write_text("def solve():\n    return 1\n")
    (tmp_path / "user.py").write_text(
        "import pkg\n"
        "def run():\n"
        "    return pkg.solve()\n")
    index = build_index([str(tmp_path)])
    graph = CallGraph(index)
    assert graph.resolve("pkg.solve") == "pkg.inner.solve"
    assert ("pkg.inner.solve", 3) in graph.edges["user.run"]


def test_reachability_returns_witness_chain():
    index = build_index([str(FIXTURES / "rl012_pos.py")])
    graph = CallGraph(index)
    parents = graph.reachable_from(["rl012_pos.plan"])
    assert "rl012_pos._stamp" in parents
    chain = graph.chain_to_root("rl012_pos._stamp", parents)
    assert chain == ["rl012_pos.plan", "rl012_pos._stamp"]


def test_taint_is_config_independent():
    index = build_index([str(FIXTURES / "flow_project")])
    analysis = analyze_taint(CallGraph(index))
    assert len(analysis.findings) == 1
    assert analysis.findings[0].chain[0][2].startswith("unseeded")


# ---------------------------------------------------------------------------
# One engine: per-file and flow rules in one run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("twin, fixture", [("RL001", "rl001_pos.py"),
                                           ("RL006", "rl006_pos.py")])
def test_per_file_twins_are_not_subsumed_by_flow_rules(twin, fixture):
    """Why RL001 and RL006 stay: RL011 needs a tainted *draw* and RL014
    keys on the exception family, so neither sees a bare
    ``random.random()`` or an ``except Exception`` around ``.plan()``."""
    path = str(FIXTURES / fixture)
    config = LintConfig(package_override="core")
    assert lint_project([path], config=config) == []
    assert twin in {f.rule_id for f in lint_paths([path], config=config)}


def test_one_report_carries_both_tiers_sorted(capsys):
    code = main(["lint", str(FIXTURES / "rl001_pos.py"),
                 str(FIXTURES / "flow_project"), "--as-package", "core",
                 "--select", "RL001", "RL011", "--format", "json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["version"] == 1
    assert document["counts"] == {"RL001": 2, "RL011": 1}
    keys = [(f["path"], f["line"], f["col"], f["rule"])
            for f in document["findings"]]
    assert keys == sorted(keys)


def test_syntax_error_is_reported_once(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    assert [f.rule_id for f in lint_paths([str(target)])] == ["RL000"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_flow_exit_1_on_findings(capsys):
    code = main(["lint", str(FIXTURES / "flow_project"),
                 "--as-package", "core", "--select", "RL011"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RL011" in out and "taint path" in out


def test_cli_flow_exit_0_on_clean_tree(capsys):
    code = main(["lint", str(FIXTURES / "rl011_neg.py"),
                 "--as-package", "core", "--select", "RL011"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exclude_skips_matching_files(capsys):
    code = main(["lint", str(FIXTURES / "flow_leak"),
                 "--as-package", "core", "--select", "RL011",
                 "--exclude", "sibling"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_flow_json_format(capsys):
    code = main(["lint", str(FIXTURES / "flow_project"),
                 "--as-package", "core", "--select", "RL011",
                 "--format", "json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["counts"] == {"RL011": 1}


def test_cli_flow_flag_is_gone():
    with pytest.raises(SystemExit) as usage:
        main(["lint", "--flow", "src"])
    assert usage.value.code == 2


# ---------------------------------------------------------------------------
# Self-check: the shipped tree passes the one gate CI and the hook run
# ---------------------------------------------------------------------------

def test_shipped_tree_is_clean_under_rush_lint(capsys):
    assert main(["lint", str(REPO_ROOT / "src")]) == 0
    assert "clean" in capsys.readouterr().out
