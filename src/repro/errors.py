"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so a
caller embedding the scheduler can catch one type at the integration
boundary.  More specific subclasses exist for the situations a scheduler
host is expected to handle programmatically (infeasible plans, bad
configuration), mirroring how the paper's YARN integration surfaces
"impossible" jobs in its management interface instead of crashing.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid.

    Raised for malformed utility parameters, negative capacities, bad
    percentile/entropy thresholds and similar input mistakes.  The message
    always names the offending parameter.
    """


class TraceFormatError(ConfigurationError):
    """A workload trace file violates its on-disk format.

    Raised by the SWF reader (:mod:`repro.workload.swf`) for truncated
    records, non-numeric fields, out-of-order submit times and unknown
    header directives.  Always carries the 1-based ``line`` number (and,
    when known, the ``path``) of the offending input, so ingestion
    failures point at the exact record — never a bare :class:`ValueError`
    from deep inside a float parse.
    """

    def __init__(self, message: str, *, line: "int | None" = None,
                 path: "str | None" = None) -> None:
        self.line = line
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}:"
        if line is not None:
            where += f"line {line}: "
        elif where:
            where += " "
        super().__init__(where + message)


class DistributionError(ReproError):
    """A probability distribution is malformed or unusable.

    Examples: a PMF that does not sum to one, negative probabilities, or a
    KL divergence query against a reference with mismatched support.
    """


class InfeasiblePlanError(ReproError):
    """No feasible schedule exists for the requested constraints.

    The planner normally degrades gracefully (late jobs receive zero
    utility and are pushed out, exactly like the red rows in the paper's
    RUSH-YARN web interface).  This error is reserved for requests that are
    structurally impossible, e.g. zero cluster capacity with non-zero
    demand.
    """


class EstimationError(ReproError):
    """A distribution estimator cannot produce an estimate.

    Raised when an estimator is queried with no samples and no prior, or
    when the sample data is degenerate in a way the estimator cannot
    represent.
    """


class SimulationError(ReproError):
    """The cluster simulator reached an inconsistent state.

    This signals a bug or a misuse of the simulator API (e.g. launching a
    task on an occupied container), never a merely unlucky workload.
    """


class SimulationTimeoutError(SimulationError):
    """A bounded simulation ran out of slots with jobs still active.

    Raised by :meth:`repro.cluster.simulator.ClusterSimulator.run` when
    ``raise_on_timeout=True``; otherwise the partial result is returned
    with its ``timed_out`` flag set so callers can never mistake a
    truncated run for a completed one.
    """


class ServiceError(ReproError):
    """Base class for scheduler-service request failures.

    Every service error carries a stable machine-readable ``code`` and
    the HTTP ``status`` the daemon maps it to, so clients can branch on
    typed errors instead of scraping messages.  Anything the daemon
    raises on a request path derives from this class; reaching a bare
    500 therefore always indicates a bug, never a rejected request.
    """

    code = "service-error"
    status = 500


class BadRequestError(ServiceError):
    """A request is malformed: bad JSON, a missing or mistyped field.

    The message names the offending field or parse failure.
    """

    code = "bad-request"
    status = 400


class UnknownJobError(ServiceError):
    """A request referenced a job id the service has never seen."""

    code = "unknown-job"
    status = 404

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")


class JobStateError(ServiceError):
    """The job exists but its state forbids the requested transition.

    Examples: cancelling an already-completed or already-cancelled job,
    resubmitting an id that is still live.
    """

    code = "job-state"
    status = 409


class TenantQuotaError(ServiceError):
    """A tenant's concurrent-job quota is exhausted.

    Submission is refused *now*; the client should back off and retry —
    the 429 mapping makes that contract explicit.
    """

    code = "quota-exceeded"
    status = 429


class SolverBudgetError(ReproError):
    """A planning round failed by injected solver fault.

    Raised by :meth:`repro.schedulers.rush.RushScheduler.inject_solver_fault`'s
    armed rungs (the ``solver_budget`` chaos injector and the service's
    ``/chaos/solver-fault``).  The degradation ladder catches it and
    serves the last good plan, or grants by greedy EDF, instead of
    stalling the cluster.  The planner itself reads no wall clock, so
    nothing else raises it.
    """
