"""Tests for the management-interface rendering (Figure 2)."""

from __future__ import annotations

import pytest

from repro import (
    ClusterSimulator,
    ConstantUtility,
    GaussianEstimator,
    JobSpec,
    LinearUtility,
    PlannerJob,
    RushPlanner,
    RushScheduler,
)
from repro.ui import (
    render_cluster_text,
    render_status_html,
    render_status_text,
    status_rows,
)


@pytest.fixture
def plan():
    de = GaussianEstimator(prior_mean=10, prior_std=2)
    planner = RushPlanner(capacity=4, theta=0.9, delta=0.5)
    jobs = [
        PlannerJob("healthy", ConstantUtility(2.0), de.estimate(10)),
        PlannerJob("doomed", LinearUtility(budget=3, priority=1),
                   de.estimate(50), elapsed=100.0),
    ]
    return planner.plan(jobs)


class TestStatusRows:
    def test_one_row_per_job_in_order(self, plan):
        rows = status_rows(plan)
        assert [row[0] for row in rows] == ["healthy", "doomed"]

    def test_impossible_marked(self, plan):
        rows = {row[0]: row for row in status_rows(plan)}
        assert rows["doomed"][-1] == "IMPOSSIBLE"
        assert rows["healthy"][-1] == "ok"


class TestTextRendering:
    def test_contains_header_and_jobs(self, plan):
        text = render_status_text(plan)
        assert "theta=0.9" in text
        assert "healthy" in text and "doomed" in text

    def test_red_row_marker_and_footer(self, plan):
        text = render_status_text(plan)
        assert "!!" in text
        assert "resubmit" in text
        assert "doomed" in text.splitlines()[-1]

    def test_no_footer_when_all_ok(self):
        de = GaussianEstimator(prior_mean=10, prior_std=2)
        planner = RushPlanner(capacity=4)
        plan = planner.plan([PlannerJob("ok", ConstantUtility(1.0),
                                        de.estimate(5))])
        text = render_status_text(plan)
        assert "resubmit" not in text


class TestHtmlRendering:
    def test_is_self_contained_html(self, plan):
        page = render_status_html(plan)
        assert page.startswith("<!DOCTYPE html>")
        assert page.count("<tr") == 3  # header + 2 jobs

    def test_impossible_row_is_red(self, plan):
        page = render_status_html(plan)
        assert "background:#c0392b" in page

    def test_escapes_job_ids(self):
        de = GaussianEstimator(prior_mean=10, prior_std=2)
        planner = RushPlanner(capacity=4)
        plan = planner.plan([PlannerJob("<script>", ConstantUtility(1.0),
                                        de.estimate(5))])
        page = render_status_html(plan)
        assert "<script>" not in page
        assert "&lt;script&gt;" in page


class TestProfileRendering:
    def test_empty_profile(self):
        from repro import render_profile_text
        text = render_profile_text({"plans_computed": 0})
        assert "no plans computed" in text

    def test_renders_all_counter_groups(self):
        from repro import render_profile_text
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler)
        sim.submit(JobSpec(job_id="j", arrival=0, task_durations=(3, 3),
                           utility=ConstantUtility(1.0), prior_runtime=3.0))
        sim.run()
        text = render_profile_text(scheduler.profile())
        assert "planner profile:" in text
        assert "onion peeling" in text
        assert "estimates:" in text
        assert "WCDE memo:" in text
        assert "feasibility check(s) evaluated" in text
        assert "certified" in text


class TestClusterRendering:
    def test_live_snapshot(self):
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler)
        sim.submit(JobSpec(job_id="j", arrival=0, task_durations=(3, 3),
                           utility=ConstantUtility(1.0), prior_runtime=3.0))
        sim.step()
        text = render_cluster_text(sim, scheduler.last_plan)
        assert "slot 1" in text
        assert "2/2 containers busy" in text
        assert "j" in text

    def test_empty_cluster(self):
        sim = ClusterSimulator(2, RushScheduler())
        text = render_cluster_text(sim)
        assert "0/2 containers busy" in text
