"""Onion peeling — Algorithm 3 of the paper.

Once the WCDE layer has produced a robust demand ``eta_i`` (in
container-time-slots) for every job, the Time-Aware Scheduling problem is
deterministic: choose target completion-times maximizing the *lexicographic
max-min* vector of job utilities, subject to the cluster capacity ``C``.

The onion peeling method maximizes the minimum utility "layer by layer".
Within one layer it bisects on a utility level ``L``: a level is feasible
iff every job can finish by its utility deadline ``U_i^{-1}(L)``, which by
Theorem 2 reduces to the staircase capacity test (12)::

    sum_{i in N_k} eta_i + G(d_k)  <=  C * d_k        for every k,

where ``d_1 <= d_2 <= ...`` are the sorted deadlines, ``N_k`` the first
``k`` jobs and ``G(t)`` the demand already committed to previously peeled
jobs finishing by ``t``.  The job owning the first violated constraint at
the last infeasible level is the layer's *bottleneck*: its utility cannot
be improved further, so it is peeled (its completion-time frozen, its
demand folded into ``G``) and the search continues with the rest.

Deadlines are measured in slots from "now".  Re-planning an in-flight job
is supported through ``elapsed`` (slots since submission: utilities are
functions of total completion-time) and Theorem 3's continuity slack is
supported through ``compensation`` (the per-job budget reduction ``R_i``
that makes the continuous-time-slot mapping achievable).

A probe whose answer is already known is not evaluated: three exact
certificates (:func:`_certify`) sit in front of the staircase pass — a
level above some active job's own utility ceiling is infeasible, a
level verified with slack to spare stays feasible across the peels made
at it, and the bottleneck probe at the level the bisection has just
found infeasible re-reads that pass instead of repeating it.
``OnionResult.feasibility_checks`` counts the passes evaluated,
``certified_probes`` the rest.

For speed the deadline evaluation is vectorized across jobs: the built-in
utility classes (linear, sigmoid, constant, step) are grouped into numpy
parameter arrays, while arbitrary user classes fall back to a scalar call.
This keeps a full lexicographic solve for 1000 jobs within the interactive
budget the paper reports for its Java implementation (Figure 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.utility.base import UtilityFunction
from repro.utility.constant import ConstantUtility
from repro.utility.linear import LinearUtility
from repro.utility.sigmoid import SigmoidUtility
from repro.utility.step import StepUtility

__all__ = ["OnionJob", "JobTarget", "OnionResult", "solve_onion",
           "default_horizon"]


@dataclass(frozen=True)
class OnionJob:
    """One job as seen by the TAS layer.

    Attributes
    ----------
    job_id:
        Opaque identifier, unique within one solve.
    demand:
        Robust remaining demand ``eta_i`` in container-time-slots.
    utility:
        The job's utility function of *total* completion-time.
    elapsed:
        Slots already spent since submission (0 for a fresh job).  The
        deadline from now for level ``L`` is ``U^{-1}(L) - elapsed``.
    compensation:
        Theorem 3 slack, normally the average container runtime ``R_i``;
        subtracted from every deadline so the continuous mapping's
        ``T_i + R_i`` bound still meets the original deadline.
    """

    job_id: str
    demand: float
    utility: UtilityFunction
    elapsed: float = 0.0
    compensation: float = 0.0

    def __post_init__(self) -> None:
        if self.demand < 0 or not math.isfinite(self.demand):
            raise ConfigurationError(
                f"job {self.job_id!r}: demand must be finite and >= 0, got {self.demand}")
        if self.elapsed < 0:
            raise ConfigurationError(
                f"job {self.job_id!r}: elapsed must be >= 0, got {self.elapsed}")
        if self.compensation < 0:
            raise ConfigurationError(
                f"job {self.job_id!r}: compensation must be >= 0, got {self.compensation}")


@dataclass(frozen=True)
class JobTarget:
    """The peeled decision for one job.

    ``target_completion`` counts slots from now; the job is expected to be
    done by then under the robust demand.  ``utility_value`` is the utility
    the planner expects at that completion (using total time
    ``elapsed + target_completion``).  ``achievable`` is false for jobs
    whose expected utility is (numerically) zero — the "red rows" of the
    paper's management interface.
    """

    job_id: str
    target_completion: int
    utility_value: float
    layer: int
    achievable: bool


@dataclass(frozen=True)
class OnionResult:
    """Solution of one lexicographic max-min solve."""

    targets: Dict[str, JobTarget]
    layers: int
    #: Staircase passes evaluated.
    feasibility_checks: int
    horizon: int
    #: Probes whose verdict a certificate supplied instead of a pass; with
    #: ``feasibility_checks`` it adds up to the probes the solve asked.
    certified_probes: int = 0

    def utility_vector(self) -> List[float]:
        """Achieved utilities sorted non-decreasingly (the lex-max-min vector)."""
        return sorted(t.utility_value for t in self.targets.values())


def default_horizon(jobs: Sequence[OnionJob], capacity: int) -> int:
    """A horizon long enough that the bottom utility layer is feasible.

    ``ceil(total_demand / capacity)`` slots suffice to fit all demand, with
    one extra slot of slack for the integer rounding of deadlines.
    """
    total = sum(job.demand for job in jobs)
    return max(1, int(math.ceil(total / max(capacity, 1))) + 1)


class _DeadlineBank:
    """Vectorized ``U_i^{-1}(L)`` across a fixed set of jobs.

    Groups jobs of the built-in utility classes into parameter arrays so a
    level query costs a handful of numpy expressions rather than one
    Python call per job.  Unknown classes are handled by a scalar loop.
    """

    def __init__(self, jobs: Sequence[OnionJob], horizon: int,
                 demands: Optional[npt.NDArray[np.float64]] = None,
                 capacity: Optional[float] = None) -> None:
        self._n = len(jobs)
        self._horizon = horizon
        self._demands = demands
        self._capacity = capacity
        offsets = np.array([job.elapsed + job.compensation for job in jobs])
        self._offsets = offsets
        lin_idx, sig_idx, flat_idx, step_idx, other_idx = [], [], [], [], []
        for i, job in enumerate(jobs):
            u = job.utility
            if isinstance(u, LinearUtility):
                lin_idx.append(i)
            elif isinstance(u, SigmoidUtility):
                sig_idx.append(i)
            elif isinstance(u, ConstantUtility):
                flat_idx.append(i)
            elif isinstance(u, StepUtility):
                step_idx.append(i)
            else:
                other_idx.append(i)
        self._lin = np.array(lin_idx, dtype=int)
        self._sig = np.array(sig_idx, dtype=int)
        self._flat = np.array(flat_idx, dtype=int)
        self._step = np.array(step_idx, dtype=int)
        self._other = other_idx
        self._other_utils = [jobs[i].utility for i in other_idx]

        def params(idx: Sequence[int], attr: str) -> npt.NDArray[np.float64]:
            return np.array([getattr(jobs[i].utility, attr) for i in idx], dtype=float)

        self._lin_b = params(lin_idx, "budget")
        self._lin_w = params(lin_idx, "priority")
        self._lin_beta = params(lin_idx, "beta")
        self._sig_b = params(sig_idx, "budget")
        self._sig_w = params(sig_idx, "priority")
        self._sig_beta = params(sig_idx, "beta")
        with np.errstate(over="ignore"):
            self._sig_max = self._sig_w / (1.0 + np.exp(-self._sig_beta * self._sig_b))
        self._flat_w = params(flat_idx, "priority")
        self._step_b = params(step_idx, "budget")
        self._step_w = params(step_idx, "priority")
        # The level above which each class answers -inf, computed once:
        # raw_deadlines compares against these very floats, so a caller
        # that reads them (certificate A) predicts its -inf bit-exactly.
        self._lin_top = self._lin_beta * self._lin_b + self._lin_w + 1e-15
        self._sig_top = self._sig_max + 1e-15
        self._flat_top = self._flat_w + 1e-15
        self._step_top = self._step_w + 1e-15
        #: Per job, the level above which its deadline is ``-inf`` at any
        #: positive level; ``+inf`` for custom classes (never predicted).
        self.unreachable_above = np.full(self._n, np.inf)
        self.unreachable_above[self._lin] = self._lin_top
        self.unreachable_above[self._sig] = self._sig_top
        self.unreachable_above[self._flat] = self._flat_top
        self.unreachable_above[self._step] = self._step_top
        # Utility ceilings, evaluated once: the layer loop and the
        # bottleneck lookahead take maxima over (subsets of) these
        # thousands of times per solve.
        self.max_values = np.array([job.utility.max_value() for job in jobs],
                                   dtype=float)
        self._level_memo: Dict[float, npt.NDArray[np.float64]] = {}
        self._view_memo: Dict[float, Tuple[npt.NDArray[np.intp],
                                           npt.NDArray[np.float64],
                                           npt.NDArray[np.float64]]] = {}

    def raw_deadlines(self, level: float) -> npt.NDArray[np.float64]:
        """``U_i^{-1}(level)`` for every job, before elapsed/compensation."""
        d = np.empty(self._n, dtype=float)
        if level <= 0.0:
            # Every built-in class attains a non-positive level at any
            # time (a constant's priority is >= 0); custom classes are
            # asked below.
            d.fill(np.inf)
        else:
            if self._lin.size:
                vals = self._lin_b + (self._lin_w - level) / self._lin_beta
                vals[level > self._lin_top] = -np.inf
                d[self._lin] = vals
            if self._sig.size:
                # The log's argument is at least 1e-300: no divide or
                # invalid floating-point state to silence.
                vals = self._sig_w / max(level, 1e-300)
                vals -= 1.0
                np.maximum(vals, 1e-300, out=vals)
                np.log(vals, out=vals)
                vals /= self._sig_beta
                vals += self._sig_b
                vals[level > self._sig_top] = -np.inf
                d[self._sig] = vals
            if self._flat.size:
                d[self._flat] = np.where(level <= self._flat_top,
                                         np.inf, -np.inf)
            if self._step.size:
                d[self._step] = np.where(level > self._step_top,
                                         -np.inf, self._step_b)
        for pos, util in zip(self._other, self._other_utils):
            d[pos] = util.deadline_for(level)
        return d

    def deadlines(self, level: float) -> npt.NDArray[np.float64]:
        """Integer slot deadlines from now, capped at the horizon.

        Entries are ``-inf`` when the level is unreachable for the job.
        Results are memoized per level for the lifetime of the bank: the
        bisection grids of consecutive layers and of the bottleneck
        lookahead revisit the same levels constantly, so most queries of
        one solve are dict hits.  The returned array is read-only.
        """
        cached = self._level_memo.get(level)
        if cached is not None:
            return cached
        d = self.raw_deadlines(level)
        d -= self._offsets
        # Cap, nudge and floor in place: the floor of +-inf is +-inf, so
        # every entry takes the same three ufuncs.
        np.minimum(d, self._horizon, out=d)
        d += 1e-9
        np.floor(d, out=d)
        d.setflags(write=False)
        if len(self._level_memo) >= 1024:
            self._level_memo.clear()
        self._level_memo[level] = d
        return d

    def level_view(self, level: float) -> Tuple[npt.NDArray[np.intp],
                                                npt.NDArray[np.float64],
                                                npt.NDArray[np.float64]]:
        """The whole layer's deadlines at ``level``, pre-sorted once.

        Returns ``(order, deadlines_sorted * capacity, demands_sorted)``
        where ``order`` is the *stable* argsort of :meth:`deadlines` over
        every job in the bank and the two value arrays are aligned with
        it.  Feasibility checks restrict this full-set view to the active
        jobs with one boolean gather — a subsequence of a stably sorted
        array is itself stably sorted, so the restriction reproduces
        exactly the order a per-check stable argsort of the subset would
        produce.  Deadlines come back pre-multiplied by the capacity so
        the staircase's right-hand side ``capacity * d`` costs nothing
        per check; :meth:`deadlines` floors every finite entry to an
        integer, so the scaling is order-preserving and collapses no
        ties (integer-times-capacity products stay exact far beyond any
        realistic horizon).  Memoized per level: the bisection grids of
        consecutive layers and of the bottleneck lookahead revisit
        levels constantly, so one ``argsort`` typically serves many
        checks.
        """
        if self._demands is None or self._capacity is None:
            raise ConfigurationError(
                "level_view needs the bank constructed with demand and "
                "capacity")
        view = self._view_memo.get(level)
        if view is not None:
            return view
        d = self.deadlines(level)
        order = d.argsort(kind="stable")
        dcap = d.take(order)
        dcap *= self._capacity
        view = (order, dcap, self._demands.take(order))
        if len(self._view_memo) >= 1024:
            self._view_memo.clear()
        self._view_memo[level] = view
        return view


class _PeeledLedger:
    """Demand committed to already-peeled jobs, by target completion-time.

    Exposes the peeled ``(T_j, eta_j)`` pairs sorted by time so the
    feasibility test can fold them into the staircase.  Note that the
    capacity condition must be verified at *every* deadline — peeled ones
    included: a peeled job finishing just after an active job's deadline
    still competes for the same early slots.
    """

    def __init__(self, size: int, capacity: float) -> None:
        # One row per array, preallocated for every job of the solve; the
        # public arrays are views of the committed prefix.
        self._rows = np.empty((3, size))
        self._capacity = capacity
        #: The committed pairs as arrays, sorted by time; ``scaled`` is
        #: ``times * capacity``, the staircase's right-hand side.
        self.times: npt.NDArray[np.float64] = self._rows[0, :0]
        self.demands: npt.NDArray[np.float64] = self._rows[1, :0]
        self.scaled: npt.NDArray[np.float64] = self._rows[2, :0]

    def commit(self, completion: float, demand: float) -> None:
        """Insert one pair after every equal time — the stable order."""
        n = self.times.size
        pos = int(self.times.searchsorted(completion, side="right"))
        rows = self._rows
        rows[:, pos + 1:n + 1] = rows[:, pos:n]
        rows[:, pos] = (completion, demand, float(completion) * self._capacity)
        self.times, self.demands, self.scaled = rows[:, :n + 1]


def solve_onion(jobs: Sequence[OnionJob], capacity: int, *,
                tolerance: float = 0.01,
                horizon: Optional[int] = None,
                lookahead: int = 4) -> OnionResult:
    """Lexicographic max-min completion-time assignment (Algorithm 3).

    Parameters
    ----------
    jobs:
        The active jobs with their robust demands.
    capacity:
        Cluster capacity ``C`` in containers.
    tolerance:
        Bisection tolerance ``Delta`` on the utility level.
    horizon:
        Scheduling horizon in slots.  Defaults to
        :func:`default_horizon`, which always admits the bottom layer.
    lookahead:
        Maximum bottleneck candidates evaluated when a layer bottoms out
        at the utility floor and several jobs could be the sacrifice (see
        the inline comment); 0 restores the paper's pure greedy rule,
        the reference ``tests/test_onion_lookahead.py`` compares against.

    Raises
    ------
    InfeasiblePlanError
        If even the bottom utility layer does not fit the horizon (only
        possible with an explicit, too-short horizon or zero capacity).
    """
    if capacity <= 0:
        raise InfeasiblePlanError(f"cluster capacity must be positive, got {capacity}")
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("job ids must be unique within one solve")
    if horizon is None:
        horizon = default_horizon(jobs, capacity)
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")

    targets: Dict[str, JobTarget] = {}
    active: List[int] = []
    for i, job in enumerate(jobs):
        if job.demand <= 0.0:
            # Nothing left to run: the job completes "now" at full utility.
            value = job.utility.value(job.elapsed)
            targets[job.job_id] = JobTarget(
                job_id=job.job_id, target_completion=0,
                utility_value=value, layer=0, achievable=value > 0.0)
        else:
            active.append(i)

    n_jobs = len(jobs)
    demands = np.array([job.demand for job in jobs], dtype=float)
    bank = _DeadlineBank(jobs, horizon, demands, capacity)
    floors = np.array([job.utility.min_value() for job in jobs], dtype=float)
    # An unbounded ceiling makes every bisection midpoint infinite and the
    # layer loop endless; refuse it before the first probe.
    for method, bounds in (("max_value", bank.max_values),
                           ("min_value", floors)):
        unbounded = np.flatnonzero(~np.isfinite(bounds))
        if unbounded.size:
            raise ConfigurationError(
                f"job {jobs[unbounded[0]].job_id!r}: utility {method}() must "
                f"be finite, got {bounds[unbounded[0]]}")
    global_floor = min(float(floors.min(initial=0.0)), 0.0)
    ledger = _PeeledLedger(n_jobs, capacity)
    checks = 0
    certified = 0
    # Certificate B's state: the level most recently found feasible for
    # the layer's own configuration, with the minimum slack of the pass
    # that found it.  Peeling at that level's deadlines only moves the
    # peeled job later, so the slack survives the peel (see _certify).
    carried: Optional[Tuple[float, float]] = None
    # Certificate C's state: the layer's most recent infeasible pass, as
    # ``(level, slack, order, sel, act_pos, fro_pos)`` — enough to name
    # its candidate bottlenecks again without re-running it.  Only the
    # layer's own probes (no ``frozen`` override) record or consult it,
    # and the peel drops it, so it always describes the current active
    # set and ledger.
    failed: Optional[Tuple[float, npt.NDArray[np.float64],
                           npt.NDArray[np.intp], npt.NDArray[np.bool_],
                           Optional[npt.NDArray[np.intp]],
                           Optional[npt.NDArray[np.intp]]]] = None
    # Twice the rounding error of one staircase evaluation, times a 4x
    # safety factor: at most n + 2 sequential additions and one
    # subtraction on magnitudes bounded by sum(eta) + C * horizon.
    slack_noise = (8.0 * (n_jobs + 2) * 2.0 ** -53
                   * (float(demands.sum()) + float(capacity) * horizon))

    # One-slot identity cache for what a probe needs of its active set —
    # the boolean mask and the lowest level any member cannot reach: every
    # check of one layer's bisection (and of one lookahead candidate)
    # passes the same index-array object, so both are rebuilt only once
    # per layer and once per candidate.  Holding a strong reference to the
    # key array makes the ``is`` test safe against id reuse.
    probed_idx: Optional[npt.NDArray[np.intp]] = None
    probed_mask = np.zeros(0, dtype=bool)
    probed_top = math.inf

    # Preallocated scratch for the merge: merged size is at most every job
    # plus one tentative lookahead pin, so one set of buffers serves every
    # check without re-allocating on the hot path.
    d_buf = np.empty(n_jobs + 1)
    e_buf = np.empty(n_jobs + 1)
    s_buf = np.empty(n_jobs + 1)
    comp_buf = np.empty(n_jobs + 1, dtype=bool)
    pos_buf = np.arange(n_jobs + 1)

    def staircase(level: float, active_idx: npt.NDArray[np.intp],
                  frozen: Optional[Tuple[npt.NDArray[np.float64],
                                         npt.NDArray[np.float64]]] = None,
                  need_candidates: bool = False,
                  ) -> Tuple[bool, List[int]]:
        """Check the staircase condition (12) at *all* deadlines.

        Active jobs' deadlines come from the utility level; peeled jobs
        (plus any tentative pin the bottleneck lookahead pre-merged into
        ``frozen``) contribute their frozen targets.  The condition must
        hold at every merged deadline point: a peeled job finishing just
        after an active one still competes for the same early capacity.

        The whole layer is evaluated in one vectorized pass: the active
        jobs are a boolean-gather restriction of the bank's memoized
        per-level sorted view, merged with the (already sorted) frozen
        commitments by ``searchsorted`` position arithmetic instead of a
        per-check ``argsort``.  The merge reproduces the historical
        concatenation order exactly — on equal deadlines active entries
        precede frozen ones, and both blocks keep their internal order —
        so prefix sums accumulate in the same sequence and every
        feasibility verdict is bit-identical to the scalar path.

        On failure with ``need_candidates``, the active jobs at or before
        the first violated point — the candidate bottlenecks — are
        returned by global index, in deadline order; probe callers leave
        it false and get an empty list, skipping that bookkeeping.

        A probe whose verdict :func:`_certify` already knows returns it
        without the pass, counted in ``certified`` instead of ``checks``;
        only the layer's own probes (no ``frozen`` override) carry and
        consult the slack margin and the last infeasible pass.
        """
        nonlocal checks, certified, carried, failed
        nonlocal probed_idx, probed_mask, probed_top
        if probed_idx is not active_idx:
            probed_idx = active_idx
            probed_mask = np.zeros(n_jobs, dtype=bool)
            probed_mask[active_idx] = True
            probed_top = float(
                bank.unreachable_above[active_idx].min(initial=np.inf))
        own = frozen is None
        failed_at = failed[0] if own and failed is not None else None
        verdict = _certify(level, probed_top, carried if own else None,
                           slack_noise, failed_at)
        if verdict is not None:
            certified += 1
            if verdict or not need_candidates:
                return verdict, []
            if failed is not None and level == failed_at:
                return False, _candidates(*failed[1:])
            # An unreachable level fails at the very first merged point:
            # -inf deadlines sort first, in index order, ahead of every
            # (finite) frozen time — so the pass would name exactly the
            # first active job whose deadline is -inf.
            unreachable = bank.deadlines(level)[active_idx] == -np.inf
            return False, [int(active_idx[int(np.argmax(unreachable))])]
        checks += 1
        order, dcap_sorted, eta_sorted = bank.level_view(level)
        sel = probed_mask.take(order)
        d_act = dcap_sorted.compress(sel)
        eta_act = eta_sorted.compress(sel)
        if own:
            f_times, f_demands = ledger.scaled, ledger.demands
        else:
            f_times, f_demands = frozen
        na, nf = d_act.size, f_times.size
        act_pos = None
        fro_pos = None
        if nf:
            m = na + nf
            comp = comp_buf[:m]
            comp[:] = True
            d_merged = d_buf[:m]
            eta_merged = e_buf[:m]
            # Merge by searching the smaller block into the larger one —
            # the complement positions take the other block via a boolean
            # scatter, so only one searchsorted runs per check.  Sides
            # reproduce the historical tie order exactly: on equal
            # deadlines every active entry precedes every frozen one.
            if na <= nf:
                act_pos = f_times.searchsorted(d_act, side="left")
                act_pos += pos_buf[:na]
                comp[act_pos] = False
                d_merged[act_pos] = d_act
                eta_merged[act_pos] = eta_act
                d_merged[comp] = f_times
                eta_merged[comp] = f_demands
            else:
                fro_pos = d_act.searchsorted(f_times, side="right")
                fro_pos += pos_buf[:nf]
                comp[fro_pos] = False
                d_merged[fro_pos] = f_times
                eta_merged[fro_pos] = f_demands
                d_merged[comp] = d_act
                eta_merged[comp] = eta_act
        else:
            d_merged = d_act
            eta_merged = eta_act
            m = na
        prefix = eta_merged.cumsum()
        slack = np.subtract(d_merged, prefix, out=s_buf[:m])
        # A min-reduce verdict: -inf and NaN slack entries compare False
        # against the tolerance, so unreachable levels stay infeasible.
        margin = float(slack.min(initial=np.inf))
        if margin >= -1e-9:
            if own:
                carried = (level, margin)
            return True, []
        if own:
            # ``slack`` is scratch the next pass overwrites; the rest is
            # fresh per pass (or the bank's memoized, unwritten view).
            failed = (level, slack.copy(), order, sel, act_pos, fro_pos)
        if not need_candidates:
            return False, []
        return False, _candidates(slack, order, sel, act_pos, fro_pos)

    layer = 0
    seed: Optional[float] = None
    tracer = obs.get_tracer()
    # Per-layer records accumulate in a plain list and land on the solve
    # span's payload in one note() at the end: one peel per job makes a
    # per-layer trace *event* a per-job Span allocation on the planner's
    # hot path, which is what the benchmark's obs-overhead gate polices.
    trail: Optional[List[Dict[str, object]]] = [] if tracer.active else None
    with tracer.span("onion.solve", jobs=len(jobs),
                     capacity=capacity,
                     horizon=horizon) as solve_span:
        active_idx = np.array(active, dtype=int)
        while active_idx.size:
            layer += 1
            ceiling = float(bank.max_values[active_idx].max())
            ok = staircase(ceiling, active_idx)[0]
            if ok:
                # Every remaining job attains its ceiling; peel them all.
                # Nothing probes after this, so the ledger is left alone.
                deadlines = bank.deadlines(ceiling)
                for i in active_idx:
                    _peel_one(jobs[i], float(deadlines[i]), targets, layer,
                              horizon)
                if trail is not None:
                    trail.append({"layer": layer, "level": ceiling,
                                  "peeled": "batch"})
                break
            high = ceiling
            # Seed the bracket's feasible end from the previous layer: the
            # peel invariant keeps its verified level feasible for the
            # remaining jobs, so one probe replaces the cold floor probe and
            # usually starts the bisection much closer to the fixed point.
            low = None
            if seed is not None and global_floor < seed < high:
                if staircase(seed, active_idx)[0]:
                    low = seed
            if low is None:
                ok = staircase(global_floor, active_idx)[0]
                if not ok:
                    raise InfeasiblePlanError(
                        "even the minimum utility layer does not fit the horizon "
                        f"(horizon={horizon}, capacity={capacity}); "
                        "increase the horizon or drop demand")
                low = global_floor
            while high - low > tolerance:
                mid = 0.5 * (low + high)
                if staircase(mid, active_idx)[0]:
                    low = mid
                else:
                    high = mid
            _, candidates = staircase(high, active_idx, need_candidates=True)
            if not candidates:  # pragma: no cover - defensive
                candidates = [int(active_idx[0])]
            bottleneck = candidates[-1]  # the paper's greedy pick
            seed = low

            # Sacrifice ambiguity (a refinement beyond the paper's greedy
            # rule): when the layer bottoms out at the utility floor, the
            # peeled job escapes the binding constraint entirely — its
            # floor-level deadline is the horizon — so WHICH prefix member is
            # sacrificed changes what later layers can achieve.  A one-step
            # lookahead picks the candidate whose sacrifice maximizes the next
            # layer's max-min level.  (At interior levels every prefix member
            # is provably capped at L*, so the greedy pick is optimal there.)
            if (lookahead > 0 and len(candidates) > 1
                    and low <= global_floor + tolerance):
                shortlist = candidates[-lookahead:]
                best_level = -math.inf
                for candidate in shortlist:
                    pin = _clamp_completion(
                        float(bank.deadlines(low)[candidate]), horizon)
                    # Pre-merge the tentative pin into the frozen ledger
                    # once per candidate (historical tie order: ledger
                    # entries precede the pin on equal times) so every
                    # lookahead check skips the extra-commitment merge.
                    # Times are capacity-scaled to match the staircase's
                    # pre-scaled deadline views.
                    lt, ld = ledger.times, ledger.demands
                    ins = int(lt.searchsorted(float(pin), side="right"))
                    f_times = np.empty(lt.size + 1)
                    f_times[:ins] = ledger.scaled[:ins]
                    f_times[ins] = float(pin) * capacity
                    f_times[ins + 1:] = ledger.scaled[ins:]
                    f_demands = np.empty(ld.size + 1)
                    f_demands[:ins] = ld[:ins]
                    f_demands[ins] = float(demands[candidate])
                    f_demands[ins + 1:] = ld[ins:]
                    frozen = (f_times, f_demands)
                    remaining = active_idx[active_idx != candidate]
                    level = _lookahead_level(
                        staircase, remaining, frozen, global_floor,
                        float(bank.max_values[remaining].max())
                        if remaining.size else global_floor,
                        tolerance, prune_below=best_level)
                    if level > best_level + 1e-12:
                        best_level = level
                        bottleneck = candidate
                if math.isfinite(best_level):
                    # The lookahead verified this level feasible for the
                    # remaining jobs with the winner pinned — a tighter
                    # (still exact) seed for the next layer.
                    seed = max(seed, best_level)

            deadline = float(bank.deadlines(low)[bottleneck])
            if carried is not None and carried[0] != low:
                # (B) outlives a peel only at the level the peel used.
                carried = None
            # (C) does not: the peel changes the active set and ledger.
            failed = None
            ledger.commit(
                _peel_one(jobs[bottleneck], deadline, targets, layer, horizon),
                float(demands[bottleneck]))
            # A fresh array each layer: the probe cache keys on its identity.
            active_idx = active_idx[active_idx != bottleneck]
            if trail is not None:
                trail.append({"layer": layer, "low": low, "high": high,
                              "peeled": jobs[bottleneck].job_id})

        solve_span.note(layers=layer, feasibility_checks=checks)
        if trail is not None:
            solve_span.note(layer_trail=trail)
    obs.count("rush_onion_feasibility_checks_total", checks)
    obs.count("rush_onion_certified_probes_total", certified)
    return OnionResult(targets=targets, layers=layer,
                       feasibility_checks=checks, horizon=horizon,
                       certified_probes=certified)


def _peel_one(job: OnionJob, deadline: float, targets: Dict[str, JobTarget],
              layer: int, horizon: int) -> int:
    """Freeze one job's target; returns its completion-time."""
    completion = _clamp_completion(deadline, horizon)
    value = job.utility.value(job.elapsed + completion)
    targets[job.job_id] = JobTarget(
        job_id=job.job_id, target_completion=completion,
        utility_value=value, layer=layer, achievable=value > 1e-9)
    return completion


def _candidates(slack: npt.NDArray[np.float64], order: npt.NDArray[np.intp],
                sel: npt.NDArray[np.bool_],
                act_pos: Optional[npt.NDArray[np.intp]],
                fro_pos: Optional[npt.NDArray[np.intp]]) -> List[int]:
    """The candidate bottlenecks an infeasible staircase pass names.

    They are the active jobs at or before the pass's first violated
    merged point, by global index in deadline order.  ``order`` and
    ``sel`` are the pass's sorted view and active-set mask; ``act_pos``
    / ``fro_pos`` are its merge positions (whichever block it searched;
    both ``None`` when the ledger was empty).
    """
    first = int(np.argmax(~(slack >= -1e-9)))
    if act_pos is not None:
        count = int(act_pos.searchsorted(first, side="right"))
    elif fro_pos is not None:
        count = first + 1 - int(fro_pos.searchsorted(first, side="right"))
    else:
        count = first + 1
    if count == 0:  # pragma: no cover - defensive
        count = 1
    return [int(g) for g in order.compress(sel)[:count]]


def _certify(level: float, unreachable_above: float,
             carried: Optional[Tuple[float, float]],
             slack_noise: float,
             failed_at: Optional[float]) -> Optional[bool]:
    """The verdict a staircase pass at ``level`` would return, or ``None``.

    Three certificates, all exact — they answer only what the pass itself
    would answer bit for bit, and abstain otherwise:

    (A) *Unreachable level.*  ``unreachable_above`` is the smallest of the
    active jobs' ``_DeadlineBank.unreachable_above`` thresholds.  A
    positive level above it gives that job the deadline ``-inf``; its
    slack is ``-inf`` whatever the order and the prefix sums, so the pass
    is infeasible before a single sum is formed.

    (B) *Margin-carried level.*  ``carried = (level, m)`` says a real pass
    at this level had minimum slack ``m`` and every peel since pinned a
    job at its deadline for this level, clamped — never earlier.  The
    probe therefore sees the same (deadline, demand) multiset with some
    deadlines moved later, whose exact minimum slack is no smaller; two
    float evaluations of it differ by at most ``slack_noise``.  When
    ``m - slack_noise`` still clears the pass's own ``-1e-9`` threshold
    the pass is feasible; a tighter margin abstains and the pass runs.

    (C) *Repeated infeasible level.*  ``failed_at`` is the level of the
    layer's most recent infeasible pass, run on the same active set and
    the same ledger (the caller drops it at every peel).  The pass is a
    pure function of the level, the active set and the ledger, so the
    repeat would evaluate the very same floats and fail the same way;
    the caller re-reads its candidate bottlenecks from the slack, order
    and merge positions it kept.  This answers the ``need_candidates``
    probe at ``high``, which the bisection has always just evaluated
    unless ``high`` is the ceiling and a later seed probe also failed.
    """
    if level > 0.0 and level > unreachable_above:
        return False
    if (carried is not None and level == carried[0]
            and carried[1] - slack_noise >= -1e-9):
        return True
    if failed_at is not None and level == failed_at:
        return False
    return None


def _clamp_completion(deadline: float, horizon: int) -> int:
    if not math.isfinite(deadline):
        return horizon
    return int(min(max(deadline, 1.0), horizon))


def _lookahead_level(staircase: Callable[..., Tuple[bool, List[int]]],
                     remaining_idx: npt.NDArray[np.intp],
                     frozen: Tuple[npt.NDArray[np.float64],
                                   npt.NDArray[np.float64]],
                     floor: float, ceiling: float,
                     tolerance: float,
                     prune_below: float = -math.inf) -> float:
    """Max-min level the remaining jobs could reach after a tentative peel.

    ``staircase`` is the layer feasibility oracle; the tentative
    bottleneck's pin arrives pre-merged into the ``frozen``
    (times, demands) commitment arrays.

    ``prune_below`` is the incumbent best level of the candidate scan.
    The caller only consumes this function's result through the strict
    comparison ``level > prune_below + 1e-12``, so once the bisection's
    upper bracket falls to ``prune_below + 1e-12`` the final ``low``
    (always strictly below ``high``) can no longer win and the remaining
    probes are skipped.  The returned sentinel fails the comparison the
    same way the fully-bisected value would, keeping every peel decision
    identical to the unpruned scan.
    """
    if remaining_idx.size == 0:
        return math.inf
    if ceiling <= prune_below + 1e-12:
        return prune_below
    ok, _ = staircase(ceiling, remaining_idx, frozen)
    if ok:
        return ceiling
    ok, _ = staircase(floor, remaining_idx, frozen)
    if not ok:  # pragma: no cover - the pin never breaks the bottom layer
        return floor - 1.0
    low, high = floor, ceiling
    while high - low > tolerance:
        if high <= prune_below + 1e-12:
            return prune_below
        mid = 0.5 * (low + high)
        ok, _ = staircase(mid, remaining_idx, frozen)
        if ok:
            low = mid
        else:
            high = mid
    return low
