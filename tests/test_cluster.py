"""Tests for tasks, jobs, containers and the cluster simulator."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.cluster import (
    ClusterSimulator,
    Container,
    JobSpec,
    SimJob,
    Task,
    TaskState,
    run_simulation,
)
from repro.cluster.metrics import JobRecord, lexicographic_compare
from repro.faults import default_chaos_plan
from repro.schedulers import POLICIES, FairScheduler, FifoScheduler
from repro.service import ServiceConfig, ServiceEngine, TenantSpec
from repro.utility import ConstantUtility, LinearUtility
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def spec(job_id="j", arrival=0, durations=(3, 3), budget=50.0, **kw):
    return JobSpec(job_id=job_id, arrival=arrival,
                   task_durations=tuple(durations),
                   utility=kw.pop("utility", LinearUtility(budget, 1.0)),
                   budget=budget, **kw)


class TestTask:
    def test_lifecycle(self):
        task = Task("t", "j", duration=2)
        assert task.state is TaskState.PENDING
        task.launch(5)
        assert task.state is TaskState.RUNNING
        assert not task.advance(5)
        assert task.advance(6)
        assert task.state is TaskState.COMPLETED
        assert task.start_time == 5
        assert task.finish_time == 7

    def test_double_launch_rejected(self):
        task = Task("t", "j", duration=1)
        task.launch(0)
        with pytest.raises(SimulationError):
            task.launch(1)

    def test_advance_without_launch_rejected(self):
        with pytest.raises(SimulationError):
            Task("t", "j", duration=1).advance(0)

    def test_zero_duration_rejected(self):
        with pytest.raises(SimulationError):
            Task("t", "j", duration=0)


class TestTaskCancel:
    """``Task.cancel`` is how ``ClusterSimulator.cancel_job`` aborts work."""

    def test_cancel_running(self):
        task = Task("t", "j", duration=5)
        task.launch(0)
        task.cancel()
        assert task.state is TaskState.CANCELLED

    def test_cancel_pending_allowed(self):
        task = Task("t", "j", duration=5)
        task.cancel()
        assert task.state is TaskState.CANCELLED

    def test_cancel_completed_rejected(self):
        task = Task("t", "j", duration=1)
        task.launch(0)
        task.advance(0)
        with pytest.raises(SimulationError):
            task.cancel()

    def test_logical_id_derivation(self):
        # No parsing: the logical id is given, or it is the task id.
        assert Task("j/t3", "j", duration=1).logical_id == "j/t3"
        assert Task("j/t3#2", "j", duration=1).logical_id == "j/t3#2"
        assert Task("a#b/t0", "a#b", duration=1).logical_id == "a#b/t0"
        job = SimJob(spec(job_id="x~y#1", durations=(1, 1)))
        assert [t.logical_id for t in job.tasks] == ["x~y#1/t0", "x~y#1/t1"]
        failed = job.tasks[1]
        failed.fail_after = 1
        failed.launch(0)
        failed.advance(0)
        assert failed.retry().logical_id == "x~y#1/t1"


class TestContainer:
    def test_assign_and_finish(self):
        c = Container(0)
        task = Task("t", "j", duration=1)
        c.assign(task, 0)
        assert not c.is_free
        finished = c.advance(0)
        assert finished is task
        assert c.is_free

    def test_double_assign_rejected(self):
        c = Container(0)
        c.assign(Task("t1", "j", duration=5), 0)
        with pytest.raises(SimulationError):
            c.assign(Task("t2", "j", duration=5), 0)

    def test_advance_idle_is_noop(self):
        assert Container(0).advance(0) is None


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spec(arrival=-1)
        with pytest.raises(ConfigurationError):
            spec(durations=())
        with pytest.raises(ConfigurationError):
            spec(durations=(0,))
        with pytest.raises(ConfigurationError):
            spec(sensitivity="urgent")

    def test_total_work_and_deadline(self):
        s = spec(durations=(2, 3, 4), budget=10.0, arrival=5)
        assert s.total_work == 9
        assert s.deadline == 15.0


class TestSimJob:
    def test_bookkeeping(self):
        job = SimJob(spec(durations=(1, 2)))
        assert job.pending_count == 2
        task = job.next_pending()
        task.launch(0)
        job.note_launched()
        assert job.pending_count == 1 and job.running_count == 1
        task.advance(0)
        job.note_completed(task)
        assert job.completed_count == 1
        assert not job.is_complete
        assert job.runtime_samples() == [1.0]

    def test_completion_time(self):
        job = SimJob(spec(durations=(2,)))
        assert job.completion_time is None
        task = job.next_pending()
        task.launch(3)
        job.note_launched()
        task.advance(3), task.advance(4)
        job.note_completed(task)
        assert job.is_complete
        assert job.completion_time == 5

    def test_elapsed(self):
        job = SimJob(spec(arrival=10))
        assert job.elapsed(15) == 5
        assert job.elapsed(5) == 0


class TestSimulator:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(0, FifoScheduler())

    def test_duplicate_submission(self):
        sim = ClusterSimulator(2, FifoScheduler())
        sim.submit(spec())
        with pytest.raises(SimulationError):
            sim.submit(spec())

    def test_late_submission_rejected(self):
        sim = ClusterSimulator(1, FifoScheduler())
        sim.submit(spec(job_id="a", durations=(1,)))
        sim.run()
        with pytest.raises(SimulationError):
            sim.submit(spec(job_id="b", arrival=0))

    def test_scheduler_rebind_rejected(self):
        scheduler = FifoScheduler()
        ClusterSimulator(1, scheduler)
        with pytest.raises(SimulationError):
            ClusterSimulator(1, scheduler)

    def test_single_job_timing(self):
        # 4 tasks x 3 slots on 2 containers: two waves -> 6 slots.
        result = run_simulation([spec(durations=(3, 3, 3, 3))], 2,
                                FifoScheduler())
        record = result.records[0]
        assert record.runtime == 6.0
        assert record.completed
        assert result.slots_simulated == 6

    def test_arrival_offsets_runtime(self):
        result = run_simulation([spec(arrival=10, durations=(2,))], 1,
                                FifoScheduler())
        record = result.records[0]
        assert record.runtime == 2.0
        assert result.slots_simulated == 12

    def test_capacity_is_respected(self):
        class Spy(FifoScheduler):
            max_busy = 0

            def select_job(self):
                busy = sum(1 for c in self.sim.containers if not c.is_free)
                Spy.max_busy = max(Spy.max_busy, busy)
                return super().select_job()

        specs = [spec(job_id=f"j{i}", durations=(2,) * 6) for i in range(4)]
        run_simulation(specs, 3, Spy())
        assert Spy.max_busy <= 3

    def test_task_continuity(self):
        """A launched task occupies one container contiguously."""
        result = run_simulation([spec(durations=(5, 5))], 1, FifoScheduler())
        assert result.records[0].runtime == 10.0  # strictly serial, no overlap

    def test_busy_slot_accounting(self):
        result = run_simulation([spec(durations=(3, 3))], 2, FifoScheduler())
        assert result.busy_container_slots == 6
        assert result.utilization == pytest.approx(1.0)

    def test_censoring_at_max_slots(self):
        result = run_simulation([spec(durations=(100,), budget=10.0)], 1,
                                FifoScheduler(), max_slots=20)
        record = result.records[0]
        assert not record.completed
        assert record.runtime == 20.0
        assert result.completed_count == 0

    def test_running_task_ages_equals_the_scan_at_every_slot(self):
        """The early-out for idle jobs returns what scanning every task
        would, through failures, retries, crashes and job kills."""
        specs = WorkloadGenerator(
            WorkloadConfig(n_jobs=6, capacity=16, mean_interarrival=30.0,
                           budget_ratio=1.5, size_gb_range=(0.5, 1.0),
                           time_scale=0.25), seed=3).generate()
        sim = ClusterSimulator(16, FairScheduler(), seed=3,
                               faults=default_chaos_plan(seed=3, intensity=5.0))
        for job_spec in specs:
            sim.submit(job_spec)
        compared = idle = 0
        for _ in range(200):
            sim.step()
            for job in sim.active_jobs:
                scanned = [sim.now - t.start_time for t in job.tasks
                           if t.state is TaskState.RUNNING]
                assert job.running_task_ages(sim.now) == scanned
                compared += 1
                idle += not scanned
        assert compared > 200 and 0 < idle < compared
        assert sim.task_failures

    def test_running_task_ages_reaches_appended_retries(self):
        """A retry is appended after every original attempt; the window
        from the first running attempt to the pending pointer must still
        reach it, and keep the ``tasks`` order, as attempts ahead of it
        finish."""
        job = SimJob(spec(durations=(4, 4, 4, 4)))

        def launch(now):
            task = job.next_pending()
            task.launch(now)
            job.note_launched()
            return task

        def scanned(now):
            return [now - t.start_time for t in job.tasks
                    if t.state is TaskState.RUNNING]

        def finish(task, now):
            while not task.advance(now):
                pass
            if task.state is TaskState.FAILED:
                job.note_failed(task)
            else:
                job.note_completed(task)

        t0, t1, t2, t3 = (launch(now) for now in range(4))
        t0.fail_after = 1
        finish(t0, 3)
        retry = launch(4)
        assert job.tasks.index(retry) == 4          # appended after t3
        assert job.running_task_ages(5) == scanned(5) == [4, 3, 2, 1]
        finish(t1, 6)
        assert job.running_task_ages(7) == scanned(7) == [5, 4, 3]
        finish(t3, 8)                               # a hole in the window
        retry.fail_after = 2
        finish(retry, 8)
        again = launch(9)
        assert job.tasks.index(again) == 5
        assert job.running_task_ages(10) == scanned(10) == [8, 1]
        for task in (t2, again):
            finish(task, 11)
        assert job.running_task_ages(12) == scanned(12) == []
        assert job.is_complete

    def test_work_conservation(self):
        """Busy container slots equal total ground-truth work when done."""
        specs = [spec(job_id=f"j{i}", arrival=i, durations=(2, 3, 1))
                 for i in range(5)]
        result = run_simulation(specs, 2, FifoScheduler())
        assert result.busy_container_slots == sum(s.total_work for s in specs)


#: Job ids as clients write them — the daemon accepts any non-empty
#: string, and the characters that name task attempts ("/" before the
#: task index, "#" before a retry number) are fair game.
job_ids = st.text(st.sampled_from("ab7#~/ "), min_size=1, max_size=6)


class TestAnyJobIdCompletes:
    """A job's id is opaque: no character in it changes what runs."""

    @settings(max_examples=15, deadline=None)
    @given(job_id=job_ids, tasks=st.integers(2, 4))
    def test_every_policy_completes_it(self, job_id, tasks):
        job_spec = spec(job_id=job_id, durations=(2,) * tasks)
        for name, (factory, _options) in POLICIES.items():
            result = run_simulation([job_spec], 2, factory(), max_slots=200)
            assert not result.timed_out, name
            assert result.completed_count == 1, name
            assert result.busy_container_slots == job_spec.total_work, name

    @settings(max_examples=15, deadline=None)
    @given(job_id=job_ids, tasks=st.integers(2, 4))
    def test_service_engine_completes_it_and_frees_the_slot(self, job_id,
                                                           tasks):
        engine = ServiceEngine(ServiceConfig(
            capacity=2, policy="fifo",
            tenants=(TenantSpec("team", max_active=1),)))
        engine.submit({"job_id": job_id, "tenant": "team",
                       "task_durations": [2] * tasks, "budget": 50})
        engine.tick(40)
        status = engine.job_status(job_id)
        assert status["state"] == "completed"
        assert status["completed_tasks"] == status["tasks"] == tasks
        assert engine.registry.status()["team"]["live_jobs"] == 0
        # the released max_active slot admits the tenant's next job
        nxt = engine.submit({"job_id": job_id + "+", "tenant": "team",
                             "task_durations": [1]})
        assert nxt["state"] == "accepted"


class TestJobRecord:
    def test_latency_and_utility(self):
        s = spec(durations=(4,), budget=10.0, arrival=2)
        record = JobRecord.from_spec(s, completion=8, horizon=100)
        assert record.runtime == 6.0
        assert record.latency == -4.0
        assert record.utility_value == pytest.approx(s.utility.value(6.0))

    def test_infinite_budget_latency_nan(self):
        s = JobSpec(job_id="j", arrival=0, task_durations=(1,),
                    utility=ConstantUtility(1.0))
        record = JobRecord.from_spec(s, completion=5, horizon=10)
        assert math.isnan(record.latency)


class TestLexicographicCompare:
    def test_orderings(self):
        assert lexicographic_compare([1, 2], [1, 2]) == 0
        assert lexicographic_compare([2, 1], [1, 2]) == 0  # sorted first
        assert lexicographic_compare([1, 3], [1, 2]) == 1
        assert lexicographic_compare([0, 9], [1, 2]) == -1

    def test_prefers_higher_minimum(self):
        rush = [0.5, 0.6, 5.0]
        fifo = [0.0, 2.0, 9.0]
        assert lexicographic_compare(rush, fifo) == 1
