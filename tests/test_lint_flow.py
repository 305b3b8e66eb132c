"""Tests for the project-wide dataflow engine (``rush lint --flow``).

Covers, per ISSUE 8: positive + negative fixtures for each flow rule
RL011, RL012 and RL014, multi-hop taint paths with file:line hops, the
cross-module laundering fixture (unseeded caught, seeded twin passes),
file-level suppressions that must not leak through the shared index,
the content-hash symbol cache, the ``lint_baseline.json`` ratchet, and
the CLI surface (``--flow``/``--baseline``/``--update-baseline``/
``--flow-cache``/``--exclude``).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import LintConfig, lint_project
from repro.lint.flow.baseline import (Baseline, compare_to_baseline,
                                      load_baseline, write_baseline)
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
# Symbol index + cache
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
    assert summary.globals["TABLE"] == "mutable"
    assert summary.globals["LIMIT"] == "other"
    assert summary.suppress_file == ["RL012"]
    assert summary.suppressed("RL012", 99)
    assert not summary.suppressed("RL011", 99)
    assert "f" in summary.functions


def test_cache_round_trip_and_invalidation(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def f():\n    return 1\n")
    cache = tmp_path / "cache.json"
    index1 = build_index([str(target)], cache_path=str(cache))
    assert cache.exists()
    sha1 = index1.modules["mod"].sha
    # Warm run: summary comes back identical from the cache.
    index2 = build_index([str(target)], cache_path=str(cache))
    assert index2.modules["mod"].sha == sha1
    assert index2.modules["mod"].to_dict() == index1.modules["mod"].to_dict()
    # Edit invalidates just that entry.
    target.write_text("def f():\n    return 2\n")
    index3 = build_index([str(target)], cache_path=str(cache))
    assert index3.modules["mod"].sha != sha1


def test_warm_run_produces_identical_findings(tmp_path):
    cache = tmp_path / "cache.json"
    config = LintConfig(package_override="core",
                        select=frozenset({"RL011"}))
    paths = [str(FIXTURES / "flow_project")]
    cold = lint_project(paths, config=config, cache_path=str(cache))
    warm = lint_project(paths, config=config, cache_path=str(cache))
    assert cold == warm and len(cold) == 1


def test_corrupt_cache_is_ignored(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def f():\n    return 1\n")
    cache = tmp_path / "cache.json"
    cache.write_text("{not json")
    index = build_index([str(target)], cache_path=str(cache))
    assert "mod" in index.modules


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
# Baseline ratchet
# ---------------------------------------------------------------------------

def _project_findings():
    config = LintConfig(package_override="core",
                        select=frozenset({"RL011"}))
    return lint_project([str(FIXTURES / "flow_project")], config=config)


def test_baseline_round_trip(tmp_path):
    findings = _project_findings()
    path = tmp_path / "baseline.json"
    written = write_baseline(findings, str(path))
    loaded = load_baseline(str(path))
    assert loaded.counts == written.counts
    new, notes = compare_to_baseline(findings, loaded)
    assert new == [] and notes == []


def test_baseline_flags_only_excess_findings(tmp_path):
    findings = _project_findings()
    new, _ = compare_to_baseline(findings, Baseline())
    assert new == findings  # empty baseline tolerates nothing
    path = tmp_path / "baseline.json"
    write_baseline(findings, str(path))
    # Same findings again: fully ratcheted, nothing new.
    new, _ = compare_to_baseline(findings, load_baseline(str(path)))
    assert new == []


def test_baseline_notes_overcounted_entries(tmp_path):
    findings = _project_findings()
    baseline = Baseline(counts={(findings[0].rule_id,
                                 findings[0].path): 5})
    new, notes = compare_to_baseline(findings, baseline)
    assert new == []
    assert notes and "ratchet down" in notes[0]


def test_baseline_preserves_justifications(tmp_path):
    findings = _project_findings()
    path = tmp_path / "baseline.json"
    write_baseline(findings, str(path))
    payload = json.loads(path.read_text())
    payload["entries"][0]["justification"] = "known laundering fixture"
    path.write_text(json.dumps(payload))
    write_baseline(findings, str(path),
                   previous=load_baseline(str(path)))
    payload = json.loads(path.read_text())
    assert payload["entries"][0]["justification"] == (
        "known laundering fixture")


def test_missing_baseline_is_empty():
    assert load_baseline("/nonexistent/baseline.json").counts == {}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_flow_exit_1_on_findings(capsys):
    code = main(["lint", "--flow", str(FIXTURES / "flow_project"),
                 "--as-package", "core", "--select", "RL011"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RL011" in out and "taint path" in out


def test_cli_flow_exit_0_on_clean_tree(capsys):
    code = main(["lint", "--flow", str(FIXTURES / "rl011_neg.py"),
                 "--as-package", "core", "--select", "RL011"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_flow_baseline_ratchet(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    args = ["lint", "--flow", str(FIXTURES / "flow_project"),
            "--as-package", "core", "--select", "RL011",
            "--baseline", str(baseline)]
    # Update writes the baseline and exits 0.
    assert main(args + ["--update-baseline"]) == 0
    capsys.readouterr()
    # Ratcheted: same findings now pass.
    assert main(args) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_flow_cache_warm_run(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    args = ["lint", "--flow", str(FIXTURES / "flow_project"),
            "--as-package", "core", "--select", "RL011",
            "--flow-cache", str(cache)]
    first = main(args)
    capsys.readouterr()
    assert cache.exists()
    assert main(args) == first == 1


def test_cli_exclude_skips_matching_files(capsys):
    code = main(["lint", "--flow", str(FIXTURES / "flow_leak"),
                 "--as-package", "core", "--select", "RL011",
                 "--exclude", "sibling"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_update_baseline_requires_flow_and_baseline(capsys):
    assert main(["lint", "--update-baseline", "src"]) == 2
    assert "requires --flow" in capsys.readouterr().out


def test_cli_baseline_requires_flow(capsys):
    assert main(["lint", "--baseline", "x.json", "src"]) == 2
    assert "only apply to --flow" in capsys.readouterr().out


def test_cli_flow_json_format(capsys):
    code = main(["lint", "--flow", str(FIXTURES / "flow_project"),
                 "--as-package", "core", "--select", "RL011",
                 "--format", "json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["counts"] == {"RL011": 1}


# ---------------------------------------------------------------------------
# Self-check: the shipped tree is flow-clean against the baseline
# ---------------------------------------------------------------------------

def test_shipped_tree_is_flow_clean_against_baseline():
    config = LintConfig()
    findings = lint_project([str(REPO_ROOT / "src" / "repro")],
                            config=config)
    baseline = load_baseline(str(REPO_ROOT / "lint_baseline.json"))
    new, _notes = compare_to_baseline(findings, baseline)
    assert new == [], "\n".join(f.render() for f in new)
