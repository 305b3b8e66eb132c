"""Scenario-library tests: determinism, differentials, calibration, CLI.

The frozen scenarios are the repo's end-to-end contract for real-trace
ingestion: every fast variant must (a) produce bit-identical outcomes
across runs of the same seed, (b) keep RUSH's mean realized utility at
or above the greedy-EDF baseline, and (c) earn a CALIBRATED verdict for
the trace-fitted estimators on the held-out suffix.  The ``slow``-marked
battery repeats the differential at paper scale.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.workload.scenarios import (
    DEFAULT_BASELINES,
    SCENARIOS,
    run_scenario,
    scenario_by_name,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

FAST_SEED = 0

#: The fast hpc-replay outcome digest at seed 0, as computed while the
#: Gaussian CDF still came from ``scipy.special.erf``: the stdlib
#: ``math.erf`` moves PMF bytes by 1-3 ulp, and this pins that no
#: decision moved with them.
HPC_REPLAY_FAST_DIGEST = (
    "f99ceb8ce4550c1f17e8b2caaa913b1c56a1d9c1f22b43b8afa1a9825ceb52b3")


@pytest.fixture(scope="module")
def fast_outcomes():
    """One fast run of every scenario, shared across this module."""
    return {name: run_scenario(name, seed=FAST_SEED, fast=True)
            for name in sorted(SCENARIOS)}


class TestRegistry:
    def test_ships_the_three_scenarios(self):
        assert sorted(SCENARIOS) == ["hpc-replay", "mixed-tenancy",
                                     "web-bursty"]
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description
            assert scenario_by_name(name) is scenario

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            scenario_by_name("does-not-exist")

    def test_unknown_baseline_raises(self):
        with pytest.raises(ConfigurationError, match="unknown baseline"):
            run_scenario("hpc-replay", baselines=("speedy",))


class TestDeterminism:
    def test_hpc_replay_digest_is_bit_identical_across_runs(
            self, fast_outcomes):
        rerun = run_scenario("hpc-replay", seed=FAST_SEED, fast=True)
        assert rerun.digest() == fast_outcomes["hpc-replay"].digest()

    def test_hpc_replay_digest_is_pinned(self, fast_outcomes):
        assert fast_outcomes["hpc-replay"].digest() == HPC_REPLAY_FAST_DIGEST

    def test_json_artifacts_are_byte_identical(self, fast_outcomes,
                                               tmp_path):
        from repro.analysis.scenario import save_scenario_json

        rerun = run_scenario("hpc-replay", seed=FAST_SEED, fast=True)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario_json(fast_outcomes["hpc-replay"], first)
        save_scenario_json(rerun, second)
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_change_synthetic_outcomes(self):
        one = run_scenario("web-bursty", seed=0, fast=True)
        two = run_scenario("web-bursty", seed=1, fast=True)
        assert one.digest() != two.digest()


class TestFastDifferential:
    """The 50-job CI variant of the RUSH-vs-baselines differential."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_rush_mean_utility_at_least_edf(self, fast_outcomes, name):
        outcome = fast_outcomes[name]
        assert set(outcome.results) == {"rush", *DEFAULT_BASELINES}
        assert outcome.mean_utility("rush") >= outcome.mean_utility("edf")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fitted_estimators_are_calibrated(self, fast_outcomes, name):
        report = fast_outcomes[name].calibration
        assert report is not None and report.rows
        assert report.calibrated
        assert report.coverage_last >= report.theta - 1e-9

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_policy_finishes_the_holdout(self, fast_outcomes, name):
        outcome = fast_outcomes[name]
        for result in outcome.results.values():
            assert not result.timed_out
            assert len(result.records) == outcome.holdout_jobs


@pytest.mark.slow
class TestFullDifferential:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_rush_mean_utility_at_least_edf_at_scale(self, name):
        outcome = run_scenario(name, seed=FAST_SEED, fast=False)
        assert outcome.mean_utility("rush") >= outcome.mean_utility("edf")
        assert outcome.calibration is not None
        assert outcome.calibration.calibrated


class TestArtifactShape:
    def test_to_dict_excludes_wall_clock_fields(self, fast_outcomes):
        dump = fast_outcomes["hpc-replay"].to_dict()
        blob = json.dumps(dump)
        assert "planner_seconds" not in blob
        assert dump["digest"] == fast_outcomes["hpc-replay"].digest()
        assert set(dump["utility_margins"]) == set(DEFAULT_BASELINES)
        assert dump["calibration"]["calibrated"] is True

    def test_hpc_artifact_reports_ingestion_metrics(self, fast_outcomes):
        metrics = fast_outcomes["hpc-replay"].ingestion_metrics
        assert metrics["rush_swf_records_total"]["values"] == [[[], 80.0]]

    def test_fit_summary_names_the_swf_applications(self, fast_outcomes):
        summary = fast_outcomes["hpc-replay"].fit_summary
        assert all(label.startswith("swf-app-") for label in summary)
        for stats in summary.values():
            assert stats["samples"] >= 1
            assert stats["mean"] > 0


class TestScenarioCli:
    def test_scenarios_list(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_scenarios_run_writes_json_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "hpc.json"
        code = cli_main(["scenarios", "run", "hpc-replay",
                         "--seed", "0", "--json", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "CALIBRATED" in out
        assert "digest:" in out
        assert "planner_seconds" not in out
        data = json.loads(artifact.read_text())
        assert data["scenario"] == "hpc-replay"
        assert data["digest"]

    def test_scenarios_run_all_requires_out_dir_for_json(self, capsys):
        code = cli_main(["scenarios", "run", "all", "--json", "x.json"])
        assert code == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_ingest_cli_maps_the_bundled_excerpt(self, capsys, tmp_path):
        from repro.workload.scenarios import bundled_swf_path
        from repro.workload.trace import load_trace

        out = tmp_path / "trace.jsonl"
        code = cli_main(["ingest", "--swf", str(bundled_swf_path()),
                         "--out", str(out), "--max-jobs", "10"])
        assert code == 0
        assert "ingested 10 jobs" in capsys.readouterr().out
        assert len(load_trace(out)) == 10

    def test_ingest_cli_reports_format_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.swf"
        bad.write_text("1 2 3\n")
        code = cli_main(["ingest", "--swf", str(bad),
                         "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "truncated" in err and "line 1" in err
