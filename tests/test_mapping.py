"""Tests for the continuous time-slot mapping (Algorithm 4 / Theorem 3)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.mapping import ContainerPlan, MappingJob, map_time_slots


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            map_time_slots([], 0)

    def test_duplicate_ids(self):
        jobs = [MappingJob("a", 10, 2, 10), MappingJob("a", 5, 2, 10)]
        with pytest.raises(ConfigurationError):
            map_time_slots(jobs, 2)

    def test_bad_job_fields(self):
        with pytest.raises(ConfigurationError):
            MappingJob("a", -1, 2, 10)
        with pytest.raises(ConfigurationError):
            MappingJob("a", 1, 0, 10)
        with pytest.raises(ConfigurationError):
            MappingJob("a", 1, 2, -1)


class TestTaskCount:
    def test_exact_division(self):
        assert MappingJob("a", 10, 2, 10).task_count == 5

    def test_rounds_up(self):
        assert MappingJob("a", 11, 2, 10).task_count == 6

    def test_zero_demand(self):
        assert MappingJob("a", 0, 2, 10).task_count == 0


class TestBasicMapping:
    def test_empty(self):
        plan = map_time_slots([], 4)
        assert plan.makespan == 0.0
        assert plan.next_slot_allocation() == {}

    def test_zero_demand_job(self):
        plan = map_time_slots([MappingJob("a", 0, 2, 10)], 2)
        assert plan.completion("a") == 0.0

    def test_single_job_spreads_over_queues(self):
        # 8 tasks of runtime 5 and target 10: 2 tasks per queue, 4 queues.
        plan = map_time_slots([MappingJob("a", 40, 5, 10)], 4)
        assert plan.completion("a") == pytest.approx(10.0)
        assert plan.next_slot_allocation() == {"a": 4}

    def test_jobs_ordered_by_target(self):
        jobs = [
            MappingJob("late", 4, 2, 20),
            MappingJob("early", 4, 2, 4),
        ]
        plan = map_time_slots(jobs, 1)
        # 'early' occupies the queue head; 'late' is appended after it.
        assert plan.completion("early") <= plan.completion("late")
        assert plan.next_slot_allocation() == {"early": 1}

    def test_deterministic_tie_break(self):
        jobs = [MappingJob("b", 4, 2, 4), MappingJob("a", 4, 2, 4)]
        p1 = map_time_slots(jobs, 1)
        p2 = map_time_slots(list(reversed(jobs)), 1)
        assert p1.completions == p2.completions


class TestTheorem3Bound:
    """Feasible targets complete within T_i + R_i (Theorem 3)."""

    @staticmethod
    def _staircase_ok(jobs, capacity):
        prefix = 0.0
        for job in sorted(jobs, key=lambda j: j.target_completion):
            prefix += job.task_count * job.runtime
            if prefix > capacity * job.target_completion:
                return False
        return True

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.tuples(st.floats(min_value=0.5, max_value=60.0),
                              st.floats(min_value=0.5, max_value=8.0),
                              st.integers(min_value=1, max_value=60)),
                    min_size=1, max_size=8))
    def test_bound_holds_for_feasible_targets(self, capacity, raw):
        jobs = [MappingJob(f"j{i}", demand, runtime, target)
                for i, (demand, runtime, target) in enumerate(raw)]
        if not self._staircase_ok(jobs, capacity):
            return  # Theorem 3's precondition (12) is violated
        plan = map_time_slots(jobs, capacity)
        assert not plan.overflowed
        for job in jobs:
            assert plan.completion(job.job_id) <= \
                job.target_completion + job.runtime + 1e-9

    def test_exact_fit_no_overshoot(self):
        # 4 tasks of runtime 5 exactly fill 2 queues to target 10.
        plan = map_time_slots([MappingJob("a", 20, 5, 10)], 2)
        assert plan.completion("a") == pytest.approx(10.0)

    def test_overshoot_at_most_one_runtime(self):
        # target 9 with runtime 5: the second task starts at 5 < 9 and
        # overshoots to 10 <= 9 + 5.
        plan = map_time_slots([MappingJob("a", 10, 5, 9)], 1)
        assert plan.completion("a") == pytest.approx(10.0)


class TestOverflow:
    def test_infeasible_targets_flagged(self):
        jobs = [MappingJob("a", 100, 5, 2)]  # impossible target
        plan = map_time_slots(jobs, 2)
        assert "a" in plan.overflowed
        assert plan.completion("a") > 2

    def test_overflow_balances_queues(self):
        plan = map_time_slots([MappingJob("a", 100, 5, 2)], 2)
        ends = {}
        for seg in plan.segments:
            ends[seg.queue] = max(ends.get(seg.queue, 0.0), seg.end)
        assert abs(ends[0] - ends[1]) <= 5.0 + 1e-9


class TestAllocationQueries:
    def test_allocation_at_times(self):
        jobs = [MappingJob("a", 8, 2, 4), MappingJob("b", 8, 2, 8)]
        plan = map_time_slots(jobs, 2)
        # 'a': 2 tasks per queue fill [0, 4); 'b' follows in [4, 8).
        assert plan.allocation_at(0.0) == {"a": 2}
        assert plan.allocation_at(3.9) == {"a": 2}
        assert plan.allocation_at(4.0) == {"b": 2}
        assert plan.allocation_at(100.0) == {}

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(3)
        jobs = [MappingJob(f"j{i}", float(rng.integers(1, 50)),
                           float(rng.integers(1, 5)),
                           int(rng.integers(1, 30))) for i in range(10)]
        plan = map_time_slots(jobs, 3)
        for t in np.linspace(0, plan.makespan, 50):
            assert sum(plan.allocation_at(float(t)).values()) <= 3

    def test_segment_continuity_within_queue(self):
        """Queues are packed back-to-back: no gaps, no overlaps."""
        rng = np.random.default_rng(4)
        jobs = [MappingJob(f"j{i}", float(rng.integers(1, 40)),
                           float(rng.integers(1, 4)),
                           int(rng.integers(1, 25))) for i in range(8)]
        plan = map_time_slots(jobs, 2)
        per_queue = {}
        for seg in sorted(plan.segments, key=lambda s: (s.queue, s.start)):
            prev_end = per_queue.get(seg.queue, 0.0)
            assert seg.start == pytest.approx(prev_end)
            per_queue[seg.queue] = seg.end

    def test_total_work_conserved(self):
        jobs = [MappingJob("a", 17, 3, 10), MappingJob("b", 9, 2, 12)]
        plan = map_time_slots(jobs, 3)
        by_job = {}
        for seg in plan.segments:
            by_job[seg.job_id] = by_job.get(seg.job_id, 0) + seg.tasks
        assert by_job["a"] == MappingJob("a", 17, 3, 10).task_count
        assert by_job["b"] == MappingJob("b", 9, 2, 12).task_count


class TestQueueIndex:
    """The per-queue index is built while pouring; it must be what
    sorting the segments by queue and start gives."""

    @staticmethod
    def _sorted_index(plan):
        per_queue = [[] for _ in range(plan.capacity)]
        for seg in plan.segments:
            per_queue[seg.queue].append(seg)
        for segs in per_queue:
            segs.sort(key=lambda s: s.start)
        return per_queue, [[s.start for s in segs] for segs in per_queue]

    def test_index_equals_the_sorted_segments(self):
        overflowed = []

        @settings(max_examples=150, deadline=None)
        @given(st.integers(min_value=1, max_value=6),
               st.lists(st.tuples(st.floats(min_value=0.0, max_value=80.0),
                                  st.floats(min_value=0.5, max_value=8.0),
                                  st.integers(min_value=0, max_value=40),
                                  st.sampled_from([0.0, 0.5, 2.0])),
                        max_size=12))
        def check(capacity, raw):
            jobs = [MappingJob(f"j{i}", demand, runtime, target, tie)
                    for i, (demand, runtime, target, tie) in enumerate(raw)]
            plan = map_time_slots(jobs, capacity)
            segments, starts = self._sorted_index(plan)
            assert plan._queue_segments == segments
            assert plan._queue_starts == starts
            expected = {}
            for seg in plan.segments:
                if seg.start <= 0.0 < seg.end:
                    expected[seg.job_id] = expected.get(seg.job_id, 0) + 1
            assert plan.next_slot_allocation() == expected
            overflowed.append(bool(plan.overflowed))

        check()
        assert any(overflowed) and not all(overflowed)


def walk_every_queue(jobs, capacity):
    """Algorithm 4 as it read before the mapping kept the queues below
    the target apart: every job walks the queues from 0 and skips the
    ones already at its target.  Returns ``(segments, completions,
    overflowed)`` as plain tuples."""
    segments, completions, overflowed = [], {}, set()
    occupation = [0.0] * capacity
    for job in sorted(jobs, key=lambda j: (j.target_completion,
                                           -j.tie_break, j.job_id)):
        remaining = job.task_count
        if remaining == 0:
            completions[job.job_id] = 0.0
            continue
        finish, target = 0.0, float(job.target_completion)
        for k in range(capacity):
            if remaining == 0:
                break
            start = occupation[k]
            if start >= target:
                continue
            fit = int(math.ceil((target - start) / job.runtime - 1e-9))
            take = min(fit, remaining)
            if take <= 0:
                continue
            segments.append((job.job_id, k, start, take, job.runtime))
            end = occupation[k] = start + take * job.runtime
            finish = max(finish, end)
            remaining -= take
        while remaining > 0:
            overflowed.add(job.job_id)
            k = min(range(capacity), key=occupation.__getitem__)
            start = occupation[k]
            segments.append((job.job_id, k, start, 1, job.runtime))
            end = occupation[k] = start + job.runtime
            finish = max(finish, end)
            remaining -= 1
        completions[job.job_id] = finish
    return segments, completions, overflowed


class TestQueuesBelowTheTarget:
    """Visiting only the queues below a job's target pours exactly what
    walking every queue does — overflow, near-target queues that take no
    task, and shared targets included."""

    def test_equals_walking_every_queue(self):
        seen = {"overflow": False, "shared": False}

        @settings(max_examples=200, deadline=None)
        @given(st.integers(min_value=1, max_value=8),
               st.lists(st.tuples(st.floats(min_value=0.0, max_value=80.0),
                                  st.sampled_from([0.5, 1.0, 1.5, 3.0,
                                                   1.0 / 3.0, 7.25]),
                                  st.integers(min_value=0, max_value=30),
                                  st.sampled_from([0.0, 0.5, 2.0])),
                        max_size=25))
        def check(capacity, raw):
            jobs = [MappingJob(f"j{i}", demand, runtime, target, tie)
                    for i, (demand, runtime, target, tie) in enumerate(raw)]
            plan = map_time_slots(jobs, capacity)
            segments, completions, overflowed = walk_every_queue(
                jobs, capacity)
            assert [tuple(seg) for seg in plan.segments] == segments
            assert list(plan.completions.items()) == list(completions.items())
            assert plan.overflowed == overflowed
            seen["overflow"] |= bool(overflowed)
            targets = [job.target_completion for job in jobs]
            seen["shared"] |= len(set(targets)) < len(targets)

        check()
        assert seen == {"overflow": True, "shared": True}
