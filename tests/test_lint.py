"""Tests for the rushlint static-analysis pass.

Covers, per ISSUE 3: one positive + one negative fixture per rule
(``tests/lint_fixtures/``), the suppression grammar, the JSON reporter
schema (pinned at version 1), CLI exit codes (retired rule ids are
unknown ids), and the self-check that the shipped ``src/repro`` tree is
rushlint-clean.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    RULE_REGISTRY,
    LintConfig,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.framework import SYNTAX_ERROR_ID, Finding
from repro.lint.reporters import JSON_SCHEMA_VERSION, render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: Context each rule needs, plus the exact finding count its positive
#: fixture is built to produce (pinned so rules can't silently decay).
RULE_CASES = {
    "RL001": (LintConfig(package_override="workload"), 2),
    "RL002": (LintConfig(package_override="core"), 2),
    "RL003": (LintConfig(), 2),
    "RL004": (LintConfig(package_override="faults"), 3),
    "RL005": (LintConfig(), 5),
    "RL006": (LintConfig(), 1),
    "RL007": (LintConfig(package_override="core"), 4),
    "RL008": (LintConfig(benchmark_override=True), 3),
    "RL009": (LintConfig(package_override="obs"), 2),
    "RL015": (LintConfig(package_override="service"), 6),
}


def _rule_findings(rule_id, kind):
    config, _ = RULE_CASES[rule_id]
    path = FIXTURES / f"{rule_id.lower()}_{kind}.py"
    return [f for f in lint_file(str(path), config=config)
            if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Retired rule ids (docs/LINTING.md, "Retired rules"): RL010/RL013 left
#: with the process pool, RL011/RL012/RL014 with the flow engine.  Ids
#: are never renumbered or reused, so each is an unknown id today.
RETIRED_RULE_IDS = ("RL010", "RL011", "RL012", "RL013", "RL014")


def test_registry_ships_every_domain_rule():
    assert sorted(RULE_REGISTRY) == sorted(RULE_CASES)
    for rule_id, cls in RULE_REGISTRY.items():
        assert cls.rule_id == rule_id
        assert cls.name, rule_id
        assert cls.rationale, rule_id


# ---------------------------------------------------------------------------
# Per-rule fixtures: positive fires, negative stays silent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
def test_positive_fixture_fires(rule_id):
    findings = _rule_findings(rule_id, "pos")
    assert len(findings) == RULE_CASES[rule_id][1]
    for finding in findings:
        assert finding.rule_id == rule_id
        assert finding.line >= 1
        assert finding.col >= 1
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
def test_negative_fixture_is_silent(rule_id):
    assert _rule_findings(rule_id, "neg") == []


def test_findings_are_sorted_and_positioned():
    config, _ = RULE_CASES["RL005"]
    path = str(FIXTURES / "rl005_pos.py")
    findings = lint_file(path, config=config)
    assert findings == sorted(findings)
    rendered = findings[0].render()
    assert rendered.startswith(f"{path}:")
    assert ": RL005 " in rendered


def test_select_and_ignore_filters():
    config = LintConfig(package_override="core", select=frozenset({"RL002"}))
    path = str(FIXTURES / "rl002_pos.py")
    assert {f.rule_id for f in lint_file(path, config=config)} == {"RL002"}
    config = LintConfig(package_override="core", ignore=frozenset({"RL002"}))
    assert all(f.rule_id != "RL002" for f in lint_file(path, config=config))


def test_syntax_error_reports_rl000():
    findings = lint_source("def broken(:\n", path="broken.py")
    assert len(findings) == 1
    assert findings[0].rule_id == SYNTAX_ERROR_ID
    assert "syntax error" in findings[0].message


def test_syntax_error_is_reported_once(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    assert [f.rule_id for f in lint_paths([str(target)])] == ["RL000"]


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

SNIPPET = "flag = job.utility_value == 0.0{trailer}\n"


def test_unsuppressed_snippet_fires():
    assert any(f.rule_id == "RL003"
               for f in lint_source(SNIPPET.format(trailer="")))


def test_trailing_suppression_silences_own_line():
    src = SNIPPET.format(
        trailer="  # rushlint: disable=RL003 (exact sentinel)")
    assert lint_source(src) == []


def test_standalone_suppression_applies_to_next_code_line():
    src = ("# rushlint: disable=RL003 (sentinel comparison, justified\n"
           "# at length over a second comment line)\n"
           "\n"
           + SNIPPET.format(trailer=""))
    assert lint_source(src) == []


def test_standalone_suppression_does_not_leak_past_its_line():
    src = ("# rushlint: disable=RL003 (only the first line)\n"
           + SNIPPET.format(trailer="")
           + "other = job.utility_value == 1.0\n")
    findings = lint_source(src)
    assert [f.line for f in findings if f.rule_id == "RL003"] == [3]


def test_disable_file_silences_whole_file():
    src = ("# rushlint: disable-file=RL003\n"
           + SNIPPET.format(trailer="")
           + "other = job.utility_value == 1.0\n")
    assert lint_source(src) == []


def test_disable_all_silences_every_rule():
    src = SNIPPET.format(trailer="  # rushlint: disable=all (test)")
    assert lint_source(src) == []


def test_suppression_inside_string_literal_is_ignored():
    src = ('note = "# rushlint: disable=RL003"\n'
           + SNIPPET.format(trailer=""))
    assert any(f.rule_id == "RL003" for f in lint_source(src))


def test_suppression_of_other_rule_does_not_silence():
    src = SNIPPET.format(trailer="  # rushlint: disable=RL001 (wrong id)")
    assert any(f.rule_id == "RL003" for f in lint_source(src))


def test_comma_list_suppresses_multiple_rules_on_one_line():
    src = ("import numpy as np\n"
           "rng = np.random.default_rng()"
           "  # rushlint: disable=RL001,RL003 (fixture)\n")
    config = LintConfig(package_override="core")
    assert [f for f in lint_source(src, config=config)
            if f.rule_id in ("RL001", "RL003")] == []


def test_comma_list_leaves_unlisted_rules_armed():
    src = SNIPPET.format(
        trailer="  # rushlint: disable=RL001,RL002 (wrong ids)")
    assert any(f.rule_id == "RL003" for f in lint_source(src))


DECORATED = ("import functools\n"
             "{directive}"
             "@functools.lru_cache(maxsize=None)\n"
             "def api(job):\n"
             "    return job\n")


def test_decorated_def_fires_without_suppression():
    src = DECORATED.format(directive="")
    config = LintConfig(package_override="core")
    findings = [f for f in lint_source(src, config=config)
                if f.rule_id == "RL007"]
    # Findings report at the `def` line, not the decorator line.
    assert findings and all(f.line == 3 for f in findings)


def test_standalone_suppression_covers_decorated_def():
    src = DECORATED.format(
        directive="# rushlint: disable=RL007 (fixture API)\n")
    config = LintConfig(package_override="core")
    assert [f for f in lint_source(src, config=config)
            if f.rule_id == "RL007"] == []


def test_standalone_suppression_covers_multiline_decorator():
    src = ("import functools\n"
           "# rushlint: disable=RL007 (fixture API)\n"
           "@functools.lru_cache(\n"
           "    maxsize=None,\n"
           ")\n"
           "def api(job):\n"
           "    return job\n")
    config = LintConfig(package_override="core")
    assert [f for f in lint_source(src, config=config)
            if f.rule_id == "RL007"] == []


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------

def _sample_findings():
    return [
        Finding(path="b.py", line=2, col=1, rule_id="RL003", message="m2"),
        Finding(path="a.py", line=9, col=5, rule_id="RL001", message="m1"),
    ]


def test_json_report_schema_v1():
    document = json.loads(render_json(_sample_findings(), checked_files=2))
    assert set(document) == {
        "version", "checked_files", "total", "counts", "findings"}
    assert document["version"] == JSON_SCHEMA_VERSION == 1
    assert document["checked_files"] == 2
    assert document["total"] == 2
    assert document["counts"] == {"RL001": 1, "RL003": 1}
    for entry in document["findings"]:
        assert set(entry) == {"rule", "path", "line", "col", "message"}
    # Findings are emitted sorted regardless of input order.
    assert [e["path"] for e in document["findings"]] == ["a.py", "b.py"]


def test_text_report_clean_and_dirty():
    assert render_text([], checked_files=3) == "clean: 0 findings in 3 files"
    dirty = render_text(_sample_findings(), checked_files=2)
    assert "b.py:2:1: RL003 m2" in dirty
    assert "2 finding(s) in 2 files (RL001: 1, RL003: 1)" in dirty


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

def test_cli_exit_1_with_rule_and_location_on_findings(capsys):
    path = str(FIXTURES / "rl001_pos.py")
    code = main(["lint", path, "--as-package", "workload",
                 "--select", "RL001"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RL001" in out
    assert f"{path}:8:" in out


def test_cli_exit_0_on_clean_tree(capsys):
    path = str(FIXTURES / "rl001_neg.py")
    code = main(["lint", path, "--as-package", "workload",
                 "--select", "RL001"])
    assert code == 0
    assert "clean: 0 findings in 1 file" in capsys.readouterr().out


def test_cli_exit_2_on_unknown_rule(capsys):
    code = main(["lint", str(FIXTURES), "--select", "RL999"])
    assert code == 2
    assert "unknown rule id" in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", RETIRED_RULE_IDS)
def test_cli_exit_2_on_retired_rule(rule_id, capsys):
    code = main(["lint", str(FIXTURES), "--select", rule_id])
    assert code == 2
    assert f"unknown rule id(s): {rule_id}; known: RL001" \
        in capsys.readouterr().out


def test_cli_exit_2_on_missing_path(capsys):
    code = main(["lint", str(FIXTURES / "does_not_exist.py")])
    assert code == 2
    assert "no such path" in capsys.readouterr().out


def test_cli_json_format_parses(capsys):
    path = str(FIXTURES / "rl003_pos.py")
    code = main(["lint", path, "--format", "json", "--select", "RL003"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["version"] == JSON_SCHEMA_VERSION
    assert document["counts"] == {"RL003": 2}


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("RL")]
    assert listed == sorted(RULE_CASES)


def test_cli_exclude_skips_matching_files(capsys):
    argv = ["lint", str(FIXTURES / "rl001_pos.py"),
            str(FIXTURES / "rl001_neg.py"), "--as-package", "workload",
            "--select", "RL001"]
    assert main(argv) == 1
    capsys.readouterr()
    assert main(argv + ["--exclude", "rl001_pos"]) == 0
    assert "clean: 0 findings in 1 file" in capsys.readouterr().out


def test_cli_flow_flag_is_gone():
    with pytest.raises(SystemExit) as usage:
        main(["lint", "--flow", "src"])
    assert usage.value.code == 2


def test_cli_as_benchmark_forces_rl008(capsys):
    path = str(FIXTURES / "rl008_pos.py")
    code = main(["lint", path, "--as-benchmark", "--select", "RL008"])
    assert code == 1
    assert "RL008" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Self-check: the shipped tree is rushlint-clean
# ---------------------------------------------------------------------------

def test_shipped_tree_is_rushlint_clean():
    findings = lint_paths([str(REPO_ROOT / "src" / "repro")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_shipped_tree_is_clean_under_rush_lint(capsys):
    """The one gate CI and the pre-commit hook run."""
    assert main(["lint", str(REPO_ROOT / "src")]) == 0
    assert "clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# RL003 assert exemption (test/benchmark files)
# ---------------------------------------------------------------------------

FLOAT_ASSERT = "def test_exact():\n    assert plan.utility_value == 0.75\n"


def test_rl003_exempts_asserts_in_test_files():
    """Exact equality inside ``assert`` is the determinism contract."""
    findings = lint_source(FLOAT_ASSERT, path="tests/test_golden.py")
    assert findings == []


def test_rl003_exempts_asserts_in_benchmark_files():
    findings = lint_source(FLOAT_ASSERT, path="benchmarks/bench_x.py")
    assert [f.rule_id for f in findings] == []


def test_rl003_still_fires_on_asserts_in_src():
    findings = lint_source(FLOAT_ASSERT, path="src/repro/core/plan.py")
    assert [f.rule_id for f in findings if f.rule_id == "RL003"] == ["RL003"]


def test_rl003_still_fires_outside_asserts_in_test_files():
    src = ("def helper(spec):\n"
           "    if spec.utility_value == 0.75:\n"
           "        return 1\n"
           "    return 0\n")
    findings = lint_source(src, path="tests/test_golden.py")
    assert [f.rule_id for f in findings] == ["RL003"]


def test_is_test_classification():
    config = LintConfig()
    assert config.is_test("tests/test_planner.py")
    assert config.is_test("test_planner.py")
    assert config.is_test("somewhere/tests/helpers.py")
    assert not config.is_test("src/repro/core/planner.py")
    assert not config.is_test("benchmarks/bench_planner.py")
