"""The paper's core algorithms: REM, WCDE, onion peeling, mapping, planner.

The §III-B LP baseline is a reference the tests and one ablation bench
compare against; it lives with them (``tests/tas_lp.py``), so the
package never needs an LP solver to schedule a job.
"""

from repro.core.clock import (
    CancelEvent,
    Clock,
    ClusterEvent,
    EventSource,
    QueueEventSource,
    SimulatedClock,
    SubmitEvent,
)
from repro.core.feasibility import (
    first_violation,
    minimum_capacity,
    staircase_feasible,
)
from repro.core.mapping import ContainerPlan, MappingJob, Segment, map_time_slots
from repro.core.onion import (
    JobTarget,
    OnionJob,
    OnionResult,
    default_horizon,
    solve_onion,
)
from repro.core.planner import (
    IncrementalPlanner,
    JobPlan,
    PlannerJob,
    PlanStats,
    RushPlanner,
    SchedulePlan,
)
from repro.core.rem import (
    RemSolution,
    rem_min_kl,
    rem_min_kl_from_cdf,
    rem_min_kl_from_cdf_array,
    solve_rem,
)
from repro.core.wcde import (WcdeCache, WcdeResult, solve_wcde,
                             solve_wcde_batch, worst_case_demand)

__all__ = [
    "Clock",
    "SimulatedClock",
    "SubmitEvent",
    "CancelEvent",
    "ClusterEvent",
    "EventSource",
    "QueueEventSource",
    "RemSolution",
    "solve_rem",
    "rem_min_kl",
    "rem_min_kl_from_cdf",
    "rem_min_kl_from_cdf_array",
    "WcdeCache",
    "WcdeResult",
    "solve_wcde",
    "solve_wcde_batch",
    "worst_case_demand",
    "OnionJob",
    "JobTarget",
    "OnionResult",
    "solve_onion",
    "default_horizon",
    "MappingJob",
    "Segment",
    "ContainerPlan",
    "map_time_slots",
    "staircase_feasible",
    "first_violation",
    "minimum_capacity",
    "PlannerJob",
    "JobPlan",
    "PlanStats",
    "SchedulePlan",
    "RushPlanner",
    "IncrementalPlanner",
]
