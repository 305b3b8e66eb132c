"""Unit tests for the repro.faults subsystem.

Every injector is exercised in isolation on a tiny cluster, the plan's
spec round-trip and determinism contract are pinned down, and the
simulator-level satellites (timeout flagging, end-to-end seed
reproducibility) get their regression tests.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import (ClusterSimulator, JobSpec, TaskState,
                           run_simulation)
from repro.errors import (ConfigurationError, SimulationTimeoutError)
from repro.faults import (
    ContainerCrashInjector,
    DemandBurstInjector,
    FaultLog,
    FaultPlan,
    INJECTOR_REGISTRY,
    JobKillInjector,
    SampleCorruptionInjector,
    SolverBudgetInjector,
    SpecFailureInjector,
    StragglerInjector,
    default_chaos_plan,
    injector_from_spec,
    load_fault_plan,
)
from repro.schedulers import FifoScheduler, RushScheduler
from repro.utility import LinearUtility

from .retiring import hold_retired


def spec(job_id="j", durations=(3, 3), failure_prob=0.0, arrival=0,
         budget=100.0):
    return JobSpec(job_id=job_id, arrival=arrival,
                   task_durations=tuple(durations),
                   utility=LinearUtility(budget, 1.0),
                   budget=budget, failure_prob=failure_prob)


def make_sim(specs, capacity=2, plan=None, seed=0):
    sim = ClusterSimulator(capacity, FifoScheduler(), seed=seed, faults=plan)
    for s in specs:
        sim.submit(s)
    return sim


def plan_of(*injectors, seed=7, intensity=1.0):
    return FaultPlan(list(injectors), seed=seed, intensity=intensity)


class TestFaultLog:
    def test_record_and_counts(self):
        log = FaultLog()
        log.record(0, "crash", "t0", container=1)
        log.record(2, "crash", "t1")
        log.record(2, "straggler", "t1", extra_slots=3)
        assert len(log) == 3
        assert log.count() == 3
        assert log.count("crash") == 2
        assert log.counts_by_kind() == {"crash": 2, "straggler": 1}

    def test_events_are_snapshots(self):
        log = FaultLog()
        log.record(1, "k", "t")
        events = log.events
        log.record(2, "k", "t")
        assert len(events) == 1  # earlier snapshot unaffected

    def test_to_dicts_round_trips_json(self):
        log = FaultLog()
        log.record(5, "burst", "cluster", until_slot=8)
        dumped = json.dumps(log.to_dicts())
        assert json.loads(dumped) == [
            {"slot": 5, "kind": "burst", "target": "cluster",
             "detail": {"until_slot": 8}}]


class TestInjectorValidation:
    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            ContainerCrashInjector(rate=-0.1)
        with pytest.raises(ConfigurationError):
            ContainerCrashInjector(rate=1.5)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ContainerCrashInjector(revoke_slots=-1)
        with pytest.raises(ConfigurationError):
            StragglerInjector(slowdown=1.0)
        with pytest.raises(ConfigurationError):
            DemandBurstInjector(magnitude=0.9)
        with pytest.raises(ConfigurationError):
            DemandBurstInjector(width=0)
        with pytest.raises(ConfigurationError):
            SampleCorruptionInjector(low=0.0)
        with pytest.raises(ConfigurationError):
            SampleCorruptionInjector(low=2.0, high=1.0)
        with pytest.raises(ConfigurationError):
            SolverBudgetInjector(depth=0)

    def test_registry_covers_all_kinds(self):
        assert set(INJECTOR_REGISTRY) == {
            "spec_failure", "container_crash", "straggler", "demand_burst",
            "sample_corruption", "job_kill", "solver_budget"}

    def test_injector_from_spec_errors(self):
        with pytest.raises(ConfigurationError):
            injector_from_spec({"no_kind": True})
        with pytest.raises(ConfigurationError):
            injector_from_spec({"kind": "nope"})
        with pytest.raises(ConfigurationError):
            injector_from_spec({"kind": "straggler", "bogus": 1})


class TestSpecFailureInjector:
    def test_certain_failure_arms_every_launch(self):
        sim = make_sim([spec(durations=(4,), failure_prob=0.99)],
                       plan=plan_of(SpecFailureInjector(), intensity=50.0))
        sim.step()
        task = sim.job("j").tasks[0]
        assert task.fail_after is not None
        assert 1 <= task.fail_after <= task.duration
        assert sim.fault_log.count("spec_failure") == 1

    def test_zero_probability_never_fires(self):
        result = run_simulation([spec(durations=(2, 2), failure_prob=0.0)],
                                2, FifoScheduler(),
                                faults=plan_of(SpecFailureInjector()))
        assert result.fault_count() == 0
        assert result.task_failures == 0

    def test_job_completes_through_retries(self):
        result = run_simulation([spec(durations=(2, 2), failure_prob=0.6)],
                                2, FifoScheduler(),
                                faults=plan_of(SpecFailureInjector()),
                                max_slots=10_000)
        assert result.completed_count == 1
        assert result.task_failures == result.fault_count("spec_failure")


class TestContainerCrashInjector:
    def test_crash_fails_running_task(self):
        sim = make_sim([spec(durations=(5,))],
                       plan=plan_of(ContainerCrashInjector(rate=1.0)))
        sim.step()   # launch
        sim.step()   # crash fires, task fails on advance
        job = sim.job("j")
        assert job.failed_count >= 1
        assert sim.task_failures >= 1
        assert sim.fault_log.count("container_crash") >= 1

    def test_revocation_takes_container_offline(self):
        sim = make_sim([spec(durations=(5,))], capacity=3,
                       plan=plan_of(ContainerCrashInjector(
                           rate=1.0, revoke_slots=4)))
        sim.step()
        sim.step()  # crash + revoke
        crashed = [c for c in sim.containers if c.offline_until > sim.now]
        assert crashed
        assert sim.free_container_count < sim.capacity
        for c in crashed:
            assert not c.is_available(sim.now)
            assert c.is_available(c.offline_until)

    def test_idle_containers_never_crash(self):
        sim = make_sim([spec(arrival=50)],
                       plan=plan_of(ContainerCrashInjector(rate=1.0)))
        for _ in range(10):
            sim.step()
        assert sim.fault_log.count("container_crash") == 0


class TestStragglerInjector:
    def test_straggle_extends_duration_once(self):
        sim = make_sim([spec(durations=(10,))],
                       plan=plan_of(StragglerInjector(rate=1.0, slowdown=2.0)))
        sim.step()  # launch
        sim.step()  # straggle fires once
        task = sim.job("j").tasks[0]
        assert task.duration > 10
        first_duration = task.duration
        sim.step()  # at-most-once: no further stretch
        assert task.duration == first_duration
        assert sim.fault_log.count("straggler") == 1

    def test_straggled_task_still_completes(self):
        result = run_simulation([spec(durations=(6, 6))], 2, FifoScheduler(),
                                faults=plan_of(StragglerInjector(
                                    rate=0.5, slowdown=2.0)),
                                max_slots=1000)
        assert result.completed_count == 1
        assert not result.timed_out


class TestDemandBurstInjector:
    def test_burst_inflates_launches_in_window(self):
        inj = DemandBurstInjector(rate=1.0, magnitude=2.0, width=3)
        sim = make_sim([spec(durations=(4, 4))], capacity=1,
                       plan=plan_of(inj))
        sim.step()  # burst starts; first launch inflated
        task = sim.job("j").tasks[0]
        assert task.duration == 8
        kinds = sim.fault_log.counts_by_kind()
        assert kinds["demand_burst"] == 2  # window-open + inflated launch

    def test_no_inflation_outside_window(self):
        inj = DemandBurstInjector(rate=0.0, magnitude=2.0, width=3)
        sim = make_sim([spec(durations=(4,))], plan=plan_of(inj))
        sim.step()
        assert sim.job("j").tasks[0].duration == 4

    def test_reset_clears_window(self):
        inj = DemandBurstInjector(rate=1.0)
        inj._burst_until = 99
        inj.reset()
        assert not inj.bursting


class TestSampleCorruptionInjector:
    def test_corrupts_observation_not_ground_truth(self):
        sim = make_sim([spec(durations=(3, 3))],
                       plan=plan_of(SampleCorruptionInjector(
                           rate=1.0, low=3.0, high=3.0)))
        finished = hold_retired(sim)
        while sim._active or sim._pending_arrivals:
            sim.step()
        done = [t for t in finished["j"].tasks
                if t.state is TaskState.COMPLETED]
        assert done
        for task in done:
            assert task.duration == 3          # ground truth intact
            assert task.observed_duration == 9.0
            assert task.runtime_sample == 9.0
        assert sim.fault_log.count("sample_corruption") == len(done)

    def test_metrics_use_ground_truth(self):
        corrupt = run_simulation(
            [spec(durations=(3, 3))], 2, FifoScheduler(),
            faults=plan_of(SampleCorruptionInjector(rate=1.0, low=4.0,
                                                    high=4.0)))
        clean = run_simulation([spec(durations=(3, 3))], 2, FifoScheduler())
        assert corrupt.records[0].runtime == clean.records[0].runtime


class TestJobKillInjector:
    def test_kill_fails_all_running_attempts(self):
        sim = make_sim([spec(durations=(8, 8))],
                       plan=plan_of(JobKillInjector(rate=1.0)))
        sim.step()  # both tasks launch; nothing running at kill time yet
        sim.step()  # kill fires on the running attempts
        job = sim.job("j")
        assert job.failed_count >= 2
        events = [e for e in sim.fault_log if e.kind == "job_kill"]
        assert events and events[-1].target == "j"
        assert events[-1].detail["killed_attempts"] == 2

    def test_killed_job_finishes_eventually(self):
        result = run_simulation([spec(durations=(4, 4))], 2, FifoScheduler(),
                                faults=plan_of(JobKillInjector(rate=0.3)),
                                max_slots=10_000)
        assert result.completed_count == 1

    def test_no_running_work_is_a_noop(self):
        sim = make_sim([spec(arrival=50)],
                       plan=plan_of(JobKillInjector(rate=1.0)))
        sim.step()
        assert sim.fault_log.count("job_kill") == 0


class TestSolverBudgetInjector:
    def test_arms_rush_degradation(self):
        sim = ClusterSimulator(
            2, RushScheduler(), seed=0,
            faults=plan_of(SolverBudgetInjector(rate=1.0, depth=1)))
        sim.submit(spec(durations=(3, 3)))
        sim.step()
        assert sim.fault_log.count("solver_budget") >= 1
        # the first round has no last good plan: depth 1 lands on the floor
        assert sim.scheduler.degradation_counts.get("greedy_edf", 0) >= 1

    def test_noop_on_plain_scheduler(self):
        sim = make_sim([spec(durations=(2,))],
                       plan=plan_of(SolverBudgetInjector(rate=1.0)))
        sim.step()  # FifoScheduler has no inject_solver_fault
        assert sim.fault_log.count("solver_budget") == 0

    @pytest.mark.parametrize("depth", [0, 3, 4, True, 1.5])
    def test_depth_outside_the_ladder_is_refused(self, depth):
        # The same rule the scheduler and the service apply: a plan
        # carrying such a depth neither loads nor round-trips.
        with pytest.raises(ConfigurationError, match=r"depth .*\[1, 2\]"):
            SolverBudgetInjector(depth=depth)
        with pytest.raises(ConfigurationError, match=r"depth .*\[1, 2\]"):
            FaultPlan.from_spec({"injectors": [
                {"kind": "solver_budget", "depth": depth}]})


class TestFaultPlanSpec:
    def test_round_trip(self):
        plan = default_chaos_plan(seed=11, intensity=1.5)
        rebuilt = FaultPlan.from_spec(plan.to_spec())
        assert rebuilt.to_spec() == plan.to_spec()
        assert rebuilt.seed == 11
        assert rebuilt.intensity == 1.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec({"seed": 1, "typo": True})
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec({"injectors": "not-a-list"})
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec([])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(
            {"seed": 3, "injectors": [{"kind": "straggler", "rate": 0.1}]}))
        plan = load_fault_plan(path)
        assert plan.seed == 3
        assert plan.injectors[0].kind == "straggler"
        with pytest.raises(ConfigurationError):
            (tmp_path / "bad.json").write_text("{nope")
            load_fault_plan(tmp_path / "bad.json")

    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([], intensity=-0.5)

    def test_non_injector_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(["not an injector"])  # type: ignore[list-item]


class TestFaultPlanSemantics:
    def test_rebind_rejected(self):
        plan = plan_of(SpecFailureInjector())
        make_sim([spec()], plan=plan)
        with pytest.raises(ConfigurationError):
            make_sim([spec()], plan=plan)

    def test_scaled_returns_fresh_unbound_copy(self):
        plan = plan_of(StragglerInjector(rate=0.1), seed=5)
        make_sim([spec()], plan=plan)  # bind the original
        scaled = plan.scaled(2.0)
        assert not scaled.bound
        assert scaled.intensity == 2.0
        assert scaled.seed == 5
        assert scaled.injectors[0].rate == 0.1  # rate untouched; dial moved

    def test_zero_intensity_disables_everything(self):
        result = run_simulation(
            [spec(durations=(3, 3), failure_prob=0.9)], 2, FifoScheduler(),
            faults=default_chaos_plan(seed=1, intensity=0.0))
        assert result.fault_count() == 0
        assert result.task_failures == 0

    def test_default_plan_is_legacy_spec_failure_only(self):
        plan = FaultPlan.default()
        assert [i.kind for i in plan.injectors] == ["spec_failure"]

    def test_plan_seed_overrides_sim_seed(self):
        def events(plan_seed, sim_seed):
            result = run_simulation(
                [spec(durations=(4, 4), failure_prob=0.5)], 2,
                FifoScheduler(), seed=sim_seed,
                faults=FaultPlan([SpecFailureInjector()], seed=plan_seed))
            return [e.to_dict() for e in result.fault_events]

        assert events(3, 0) == events(3, 99)  # plan seed wins

    def test_monotone_coupling_superset(self):
        # Sample corruption never alters the trajectory, so decision draws
        # align exactly across intensities: the events fired at the lower
        # intensity are a strict subset of those at the higher one.
        def fired(intensity):
            result = run_simulation(
                [spec(job_id=f"j{k}", durations=(3, 3, 3), arrival=2 * k)
                 for k in range(4)], 3, FifoScheduler(),
                faults=FaultPlan([SampleCorruptionInjector(rate=0.3)],
                                 seed=13, intensity=intensity))
            return {(e.slot, e.target) for e in result.fault_events}

        low, high = fired(0.5), fired(1.0)
        assert low <= high
        assert len(high) > len(low)


class TestSimulatorTimeout:
    def test_timed_out_flagged_not_silent(self):
        result = run_simulation([spec(durations=(50,))], 1, FifoScheduler(),
                                max_slots=5)
        assert result.timed_out
        assert result.slots_simulated == 5
        assert result.completed_count == 0
        assert not result.records[0].completed

    def test_raise_on_timeout(self):
        with pytest.raises(SimulationTimeoutError):
            run_simulation([spec(durations=(50,))], 1, FifoScheduler(),
                           max_slots=5, raise_on_timeout=True)

    def test_complete_run_not_flagged(self):
        result = run_simulation([spec(durations=(2,))], 1, FifoScheduler(),
                                max_slots=100, raise_on_timeout=True)
        assert not result.timed_out


def _comparable(result):
    d = result.to_dict()
    d.pop("planner_seconds", None)  # wall-clock, not deterministic
    return d


class TestSeedReproducibility:
    def test_identical_seeds_identical_results(self):
        specs = [spec(job_id=f"j{k}", durations=(3, 4), arrival=k,
                      failure_prob=0.3) for k in range(4)]

        def once():
            return run_simulation(
                specs, 3, RushScheduler(), seed=42,
                faults=default_chaos_plan(intensity=1.0), max_slots=5000)

        assert _comparable(once()) == _comparable(once())

    def test_different_seeds_diverge(self):
        specs = [spec(job_id=f"j{k}", durations=(4, 4), arrival=k,
                      failure_prob=0.5) for k in range(4)]

        def events(seed):
            result = run_simulation(specs, 3, FifoScheduler(), seed=seed,
                                    faults=default_chaos_plan(), max_slots=5000)
            return [e.to_dict() for e in result.fault_events]

        assert events(1) != events(2)
