"""The end-to-end RUSH planner: WCDE -> onion peeling -> mapping.

This is the library's primary entry point for one *planning round* of the
robust scheduling problem (RS) of Section II.  Given a snapshot of the
active jobs — each with a utility function and a demand estimate from its
DE unit — the planner

1. solves the WCDE problem per job (Algorithm 2 with the closed-form REM
   of Algorithm 1) to obtain the robust demand ``eta_i``,
2. runs onion peeling (Algorithm 3) to pick lexicographically max-min
   optimal target completion-times, with deadlines pre-compensated by
   ``R_i`` per Theorem 3, and
3. maps the targets onto ``C`` container queues (Algorithm 4), yielding a
   concrete assignment whose first slot the CA unit applies.

The planner's *decisions* are stateless — the surrounding system (the
cluster simulator's :class:`~repro.schedulers.rush.RushScheduler`, or a
real resource manager) re-invokes it on every scheduling event, closing
the paper's feedback cycle of estimation, recalculation and allocation —
but between consecutive events most jobs' DE output is bit-identical, so
re-solving stage 1 from scratch wastes almost all of its work.  What a
planner carries from one round to the next is only what is exact: a
content-addressed :class:`~repro.core.wcde.WcdeCache` memoizes WCDE
solves under ``(PMF fingerprint, theta, delta)`` — the inputs eta
depends on (Algorithm 2), so a job whose distribution did not move hits
its entry whichever estimate object carries it.

The onion itself is solved cold every round — every ``elapsed`` advances
each slot, so consecutive peel orders share almost no prefix
(``BENCH_onion.json``, ``plan_to_plan``) — which keeps a plan a pure
function of its snapshot.

Every plan carries a :class:`PlanStats` record (cache hits/misses,
per-stage seconds, peels, feasibility checks) so the cost of the pipeline
is an observable number rather than a guess.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro import obs
from repro import state as st
from repro.errors import ConfigurationError
from repro.core.mapping import (ContainerPlan, MappingColumns, Segment,
                                map_time_slots)
from repro.core.onion import OnionColumns, solve_onion
from repro.core.wcde import WcdeCache, WcdeResult, solve_wcde_batch
from repro.estimation.base import DemandEstimate
from repro.estimation.pmf import Pmf
from repro.utility.base import UtilityFunction

__all__ = ["PlannerJob", "JobPlan", "PlanStats", "SchedulePlan",
           "RushPlanner", "IncrementalPlanner"]

class PlannerJob(NamedTuple):
    """A job snapshot handed to the planner.

    Attributes
    ----------
    job_id:
        Unique identifier within one planning round.
    utility:
        Utility function of *total* completion-time (slots since
        submission).
    estimate:
        The DE unit's current report for the remaining demand.
    elapsed:
        Slots already elapsed since the job's submission.
    delta:
        Optional per-job entropy threshold overriding the planner default,
        matching the per-job ``delta_i`` of the formulation.
    extra_demand:
        Deterministic demand (container-time-slots) added on top of the
        robust quantile — typically the expected remaining work of the
        job's currently *running* tasks, which occupy containers beyond
        the present slot but are not part of the pending-task estimate.
    """

    job_id: str
    utility: UtilityFunction
    estimate: DemandEstimate
    elapsed: float = 0.0
    delta: Optional[float] = None
    extra_demand: float = 0.0


class JobPlan(NamedTuple):
    """The planner's decision for one job.

    ``robust_demand`` is ``eta_i`` plus the job's ``extra_demand``
    (container-time-slots); ``reference_demand`` the non-robust
    theta-quantile of the reference distribution, for comparison.
    ``target_completion`` is the onion target and ``planned_completion``
    the completion under the concrete container plan (at most
    ``target + R_i`` when targets were feasible).  ``achievable`` is false
    when the expected utility is zero — the paper's red-row warning that
    the job cannot meet any useful deadline.
    """

    job_id: str
    robust_demand: float
    reference_demand: float
    target_completion: int
    planned_completion: float
    predicted_utility: float
    achievable: bool
    layer: int
    wcde_iterations: int


@dataclass
class PlanStats:
    """Perf counters for one planning round.

    ``wcde_cache_hits`` jobs hit the content-addressed memo,
    ``wcde_cache_misses`` paid a full bisection; ``wcde_presolved`` is
    always 0 and stays only because the perf ledger's tracer reads it
    (ROADMAP 10(ii) deletes it).  Stage seconds are
    wall-clock; ``peels`` is the onion layer count,
    ``feasibility_checks`` the staircase passes evaluated (the onion's
    unit of work) and ``certified_probes`` the probes a certificate
    answered without one.
    """

    wcde_presolved: int = 0
    wcde_cache_hits: int = 0
    wcde_cache_misses: int = 0
    wcde_seconds: float = 0.0
    onion_seconds: float = 0.0
    mapping_seconds: float = 0.0
    peels: int = 0
    feasibility_checks: int = 0
    certified_probes: int = 0
    #: Degradation-ladder rung that served this plan: "" for the
    #: primary solve, "last_good" once a later round reused it (set by
    #: :meth:`~repro.schedulers.rush.RushScheduler._current_plan`).
    fallback: str = ""

    @classmethod
    def from_state(cls, state: Any) -> "PlanStats":
        """The counters ``dataclasses.asdict`` wrote."""
        counters: Dict[str, Any] = dict(st.mapping(state))
        if set(counters) != {f.name for f in fields(cls)}:
            raise ValueError(f"plan stats fields {sorted(counters)}")
        for name, value in counters.items():
            (st.string if name == "fallback" else st.number)(value)
        return cls(**counters)

    def add(self, other: "PlanStats") -> None:
        """Accumulate another round's counts and stage seconds."""
        self.wcde_presolved += other.wcde_presolved
        self.wcde_cache_hits += other.wcde_cache_hits
        self.wcde_cache_misses += other.wcde_cache_misses
        self.wcde_seconds += other.wcde_seconds
        self.onion_seconds += other.onion_seconds
        self.mapping_seconds += other.mapping_seconds
        self.peels += other.peels
        self.feasibility_checks += other.feasibility_checks
        self.certified_probes += other.certified_probes


@dataclass
class SchedulePlan:
    """Complete output of one planning round."""

    jobs: Dict[str, JobPlan]
    container_plan: ContainerPlan
    theta: float
    horizon: int
    solve_seconds: float
    stats: PlanStats = field(default_factory=PlanStats)
    _order: List[str] = field(default_factory=list, repr=False)

    @property
    def layers(self) -> int:
        """Onion layers peeled (``stats.peels``)."""
        return self.stats.peels

    @property
    def feasibility_checks(self) -> int:
        """Staircase passes evaluated (``stats.feasibility_checks``)."""
        return self.stats.feasibility_checks

    def next_slot_allocation(self) -> Dict[str, int]:
        """Containers each job should hold in the immediate next slot."""
        return self.container_plan.next_slot_allocation()

    def impossible_jobs(self) -> List[str]:
        """Jobs whose predicted utility is zero (the UI's red rows)."""
        return [job_id for job_id in self._order
                if not self.jobs[job_id].achievable]

    def utility_vector(self) -> List[float]:
        """Predicted utilities sorted non-decreasingly."""
        return sorted(plan.predicted_utility for plan in self.jobs.values())

    def state_dict(self) -> Dict[str, Any]:
        """The whole plan as JSON values, exact (unlike :meth:`to_dict`)."""
        cplan = self.container_plan
        return {
            "jobs": [list(plan) for plan in self.jobs.values()],
            "capacity": cplan.capacity,
            "segments": [list(seg) for seg in cplan.segments],
            "completions": [[job_id, value]
                            for job_id, value in cplan.completions.items()],
            "overflowed": sorted(cplan.overflowed),
            "theta": self.theta,
            "horizon": self.horizon,
            "solve_seconds": self.solve_seconds,
            "stats": asdict(self.stats),
            "order": list(self._order),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "SchedulePlan":
        """The plan :meth:`state_dict` wrote; ``TypeError`` /
        ``ValueError`` / ``KeyError`` on a malformed one."""
        jobs: Dict[str, JobPlan] = {}
        for row in st.array(state["jobs"]):
            plan = JobPlan(*st.row(row, st.string, st.number, st.number,
                                   st.integer, st.number, st.number,
                                   st.boolean, st.integer, st.integer))
            jobs[plan.job_id] = plan
        segments = [Segment(*st.row(row, st.string, st.integer, st.number,
                                    st.integer, st.number))
                    for row in st.array(state["segments"])]
        completions = {job_id: value for job_id, value in (
            st.row(item, st.string, st.number)
            for item in st.array(state["completions"]))}
        container_plan = ContainerPlan.from_segments(
            st.integer(state["capacity"]), segments, completions,
            {st.string(job_id) for job_id in st.array(state["overflowed"])})
        order = [st.string(job_id) for job_id in st.array(state["order"])]
        if set(order) != set(jobs):
            raise ValueError("the plan's order does not list its jobs")
        return cls(jobs=jobs, container_plan=container_plan,
                   theta=st.number(state["theta"]),
                   horizon=st.integer(state["horizon"]),
                   solve_seconds=st.number(state["solve_seconds"]),
                   stats=PlanStats.from_state(state["stats"]),
                   _order=order)

    def to_dict(self) -> dict:
        """JSON-compatible dump of the plan (schema-stable export).

        Floats are rounded to 6 decimals so the output is reproducible
        across platforms; ``rush plan --json`` writes exactly this.
        """
        def num(x: float) -> Optional[float]:
            if not math.isfinite(x):
                return None
            return round(float(x), 6)

        return {
            "theta": num(self.theta),
            "horizon": self.horizon,
            "layers": self.layers,
            "feasibility_checks": self.feasibility_checks,
            "fallback": self.stats.fallback,
            "jobs": [
                {
                    "job_id": job_id,
                    "robust_demand": num(plan.robust_demand),
                    "reference_demand": num(plan.reference_demand),
                    "target_completion": plan.target_completion,
                    "planned_completion": num(plan.planned_completion),
                    "predicted_utility": num(plan.predicted_utility),
                    "achievable": plan.achievable,
                    "layer": plan.layer,
                    "wcde_iterations": plan.wcde_iterations,
                }
                for job_id, plan in ((jid, self.jobs[jid])
                                     for jid in self._order)
            ],
        }


class RushPlanner:
    """Solver for one round of the robust scheduling problem.

    Parameters
    ----------
    capacity:
        Cluster capacity ``C`` in containers.
    theta:
        Completion-probability percentile of the robust constraint (3).
    delta:
        Default entropy threshold ``delta_i`` for every job; the paper's
        experiments use values around 0.7.
    tolerance:
        Bisection tolerance ``Delta`` of the onion peeling.
    wcde_cache_size:
        Entry bound of the content-addressed WCDE memo.  The cache never
        changes results — an entry is keyed by everything the solve
        depends on; 0 disables it and is kept as the uncached reference
        ``tests/test_incremental.py`` compares the memoized path against.

    Each deadline is shortened by the job's container runtime ``R_i``
    before peeling, so Theorem 3's ``T_i + R_i`` mapping bound still
    meets the original deadline (Section III-C).
    """

    def __init__(self, capacity: int, *, theta: float = 0.9, delta: float = 0.7,
                 tolerance: float = 0.01,
                 wcde_cache_size: int = 4096) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if not 0.0 <= theta <= 1.0:  # each test written so NaN fails it
            raise ConfigurationError(f"theta={theta} outside [0, 1]")
        if not 0.0 <= delta < math.inf:
            raise ConfigurationError(f"delta={delta} must be finite and >= 0")
        if not 0.0 < tolerance < math.inf:
            raise ConfigurationError(f"tolerance={tolerance} must be finite and > 0")
        if wcde_cache_size < 0:
            raise ConfigurationError(
                f"wcde_cache_size must be >= 0, got {wcde_cache_size}")
        self.capacity = capacity
        self.theta = theta
        self.delta = delta
        self.tolerance = tolerance
        self.wcde_cache: Optional[WcdeCache] = (
            WcdeCache(wcde_cache_size) if wcde_cache_size else None)

    def _solve_batch(self, pmfs: Sequence[Pmf],
                     delta: float) -> List[WcdeResult]:
        """Stage 1 for one delta group, through the memo when there is one."""
        if self.wcde_cache is not None:
            return self.wcde_cache.solve_batch(pmfs, self.theta, delta)
        return solve_wcde_batch(pmfs, self.theta, delta)

    def robust_demand(self, estimate: DemandEstimate,
                      delta: Optional[float] = None) -> tuple[float, float, int]:
        """WCDE for one job: (eta, reference quantile, iterations), in slots."""
        result = self._solve_batch(
            [estimate.pmf], self.delta if delta is None else delta)[0]
        return (estimate.demand_at(result.eta_bin),
                estimate.demand_at(result.reference_quantile),
                result.iterations)

    def plan(self, jobs: Sequence[PlannerJob],
             horizon: Optional[int] = None) -> SchedulePlan:
        """Produce a complete schedule plan for the given job snapshot."""
        started = time.perf_counter()
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("job ids must be unique within one plan")
        with obs.get_tracer().span("planner.plan", jobs=len(jobs)) as span:
            stats = PlanStats()
            cache = self.wcde_cache
            hits0 = cache.hits if cache is not None else 0
            misses0 = cache.misses if cache is not None else 0

            # Stage 1, batched: jobs are grouped by resolved delta (theta
            # is planner-wide) and each group goes to the memo, or the
            # vectorized batch solver, in one call.
            groups: Dict[float, List[PlannerJob]] = {}
            for job in jobs:
                resolved = self.delta if job.delta is None else job.delta
                groups.setdefault(float(resolved), []).append(job)
            results: Dict[str, WcdeResult] = {}
            for resolved, group in groups.items():
                solved = self._solve_batch(
                    [job.estimate.pmf for job in group], resolved)
                results.update(zip((job.job_id for job in group), solved))
            # The rest of the round reads columns, one entry per job in
            # ``jobs`` order, and builds no per-job record until JobPlan.
            etas: List[float] = []
            refs: List[float] = []
            runtimes: List[float] = []
            for job in jobs:
                result = results[job.job_id]
                estimate = job.estimate
                etas.append(estimate.demand_at(result.eta_bin)
                            + max(job.extra_demand, 0.0))
                refs.append(estimate.demand_at(result.reference_quantile))
                runtimes.append(estimate.container_runtime)
            utilities = [job.utility for job in jobs]
            elapsed = [job.elapsed for job in jobs]
            onion_jobs = OnionColumns(ids, etas, utilities, elapsed, runtimes)
            onion_jobs.check()
            if cache is not None:
                stats.wcde_cache_hits = cache.hits - hits0
                stats.wcde_cache_misses = cache.misses - misses0
            stats.wcde_seconds = time.perf_counter() - started

            if horizon is None:
                total = sum(etas)
                max_runtime = max(runtimes, default=1.0)
                horizon = max(1, int(math.ceil(total / self.capacity))
                              + int(math.ceil(max_runtime)) + 1)

            onion_started = time.perf_counter()
            onion = solve_onion(onion_jobs, self.capacity,
                                tolerance=self.tolerance, horizon=horizon)
            stats.onion_seconds = time.perf_counter() - onion_started
            stats.peels = onion.layers
            stats.feasibility_checks = onion.feasibility_checks
            stats.certified_probes = onion.certified_probes

            mapping_started = time.perf_counter()
            decided = [onion.targets[job_id] for job_id in ids]
            targets = [decision.target_completion for decision in decided]
            shared = Counter(targets)
            tie_breaks: List[float] = []
            for target, runtime, utility, done in zip(
                    targets, runtimes, utilities, elapsed):
                recoverable = 0.0
                if shared[target] > 1:
                    # Tie-break equal targets by the utility recoverable
                    # from finishing one task-runtime earlier, so a
                    # salvageable late job is packed ahead of a
                    # completion-time-insensitive one.  A job alone at
                    # its target is never compared on it.
                    earlier = max(target - runtime, 0.0)
                    recoverable = (utility.value(done + earlier)
                                   - utility.value(done + target))
                tie_breaks.append(recoverable)
            mapping_jobs = MappingColumns(ids, etas, runtimes, targets,
                                          tie_breaks)
            mapping_jobs.check()
            container_plan = map_time_slots(mapping_jobs, self.capacity)
            stats.mapping_seconds = time.perf_counter() - mapping_started

            completions = container_plan.completions
            job_plans: Dict[str, JobPlan] = {
                job_id: JobPlan(job_id, eta, ref, decision.target_completion,
                                completions[job_id], decision.utility_value,
                                decision.achievable, decision.layer,
                                result.iterations)
                for job_id, eta, ref, decision, result in zip(
                    ids, etas, refs, decided,
                    (results[job_id] for job_id in ids))}

            plan = SchedulePlan(
                jobs=job_plans, container_plan=container_plan, theta=self.theta,
                horizon=onion.horizon,
                solve_seconds=time.perf_counter() - started,
                stats=stats, _order=list(ids))
            span.note(layers=onion.layers,
                      feasibility_checks=onion.feasibility_checks)
        obs.count("rush_plans_total")
        return plan


class IncrementalPlanner:
    """A pass-through to :meth:`RushPlanner.plan`, kept only as a name.

    The planner's content-addressed :class:`~repro.core.wcde.WcdeCache`
    is stage 1's only memo; this class holds no state.  It stays because
    the perf ledger (``benchmarks/ledger``) constructs it by name, and
    goes together with that call (ROADMAP 10(ii)).
    """

    def __init__(self, planner: RushPlanner, *, warm_start: bool = False) -> None:
        # The keyword is a literal — ``False`` and only ``False``; nothing
        # is stored.  The approximate onion mode it selected is gone and
        # the name stays because benchmarks/ledger/offline.py passes it.
        if warm_start is not False:
            raise ConfigurationError(
                "warm_start=True was removed with the approximate onion "
                "mode: every plan is a cold, exact solve")
        self.planner = planner

    def plan(self, jobs: Sequence[PlannerJob],
             horizon: Optional[int] = None) -> SchedulePlan:
        """``planner.plan(jobs, horizon)``."""
        return self.planner.plan(jobs, horizon)
