"""Wire protocol of the scheduler service: typed requests and errors.

Every request body is JSON; every validation failure raises a subclass
of :class:`repro.errors.ServiceError` carrying a stable machine code and
an HTTP status, which the daemon renders as::

    {"error": {"code": "bad-request", "status": 400, "message": "..."}}

The submit payload reuses the trace-record vocabulary of
:mod:`repro.workload.trace` (``task_durations``, ``utility``, ``budget``,
...), so a frozen trace line is a valid submission body — that is what
lets the service smoke battery replay a scenario through HTTP and land
on the simulator path's exact digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster.job import JobSpec
from repro.cluster.metrics import scrub_nonfinite
from repro.errors import BadRequestError, ConfigurationError, ServiceError
from repro.utility.config import utility_from_config
from repro.workload.trace import spec_to_dict

__all__ = [
    "SubmitRequest", "parse_submit", "error_payload", "canonical_digest",
    "RollingDigest", "SENSITIVITIES",
]

SENSITIVITIES = ("critical", "sensitive", "insensitive")

#: Fields a submit payload may carry; anything else is rejected so typos
#: fail loudly instead of silently defaulting.
_SUBMIT_FIELDS = frozenset({
    "tenant", "job_id", "arrival", "task_durations", "utility", "priority",
    "budget", "benchmark_runtime", "sensitivity", "template",
    "prior_runtime", "failure_prob", "idempotency_key",
})


@dataclass(frozen=True)
class SubmitRequest:
    """A validated job submission, before ids and arrival are assigned."""

    tenant: Optional[str]
    job_id: Optional[str]
    arrival: Optional[int]
    task_durations: Tuple[int, ...]
    utility_config: Optional[Mapping[str, Any]]
    priority: float
    budget: float
    benchmark_runtime: float
    sensitivity: str
    template: str
    prior_runtime: Optional[float]
    failure_prob: float
    #: Client-chosen retry token: two submits carrying the same key are
    #: the same logical job, and the engine admits only the first.
    idempotency_key: Optional[str] = None

    def build_spec(self, job_id: str, arrival: int) -> JobSpec:
        """Materialize the immutable spec at its assigned id and slot."""
        if self.utility_config is not None:
            utility = utility_from_config(self.utility_config)
        elif math.isfinite(self.budget):
            # The paper's default job interface: a sigmoid around the
            # client's time budget.
            utility = utility_from_config({
                "class": "sigmoid",
                "budget": self.budget,
                "priority": self.priority,
            })
        else:
            utility = utility_from_config({
                "class": "constant", "priority": self.priority})
        try:
            return JobSpec(
                job_id=job_id, arrival=arrival,
                task_durations=self.task_durations, utility=utility,
                priority=self.priority, budget=self.budget,
                benchmark_runtime=self.benchmark_runtime,
                sensitivity=self.sensitivity, template=self.template,
                prior_runtime=self.prior_runtime,
                failure_prob=self.failure_prob)
        except ConfigurationError as exc:
            raise BadRequestError(str(exc)) from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequestError(message)


def _opt_float(payload: Mapping[str, Any], field: str,
               default: float) -> float:
    value = payload.get(field)
    if value is None:
        return default
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"field '{field}' must be a number, got {type(value).__name__}")
    return float(value)


def parse_submit(payload: object) -> SubmitRequest:
    """Validate a submit body; every failure names the offending field."""
    _require(isinstance(payload, Mapping),
             "submit body must be a JSON object")
    assert isinstance(payload, Mapping)
    unknown = sorted(set(payload) - _SUBMIT_FIELDS)
    _require(not unknown, f"unknown field(s): {', '.join(unknown)}")

    tenant = payload.get("tenant")
    _require(tenant is None or (isinstance(tenant, str) and tenant),
             "field 'tenant' must be a non-empty string")
    job_id = payload.get("job_id")
    _require(job_id is None or (isinstance(job_id, str) and job_id),
             "field 'job_id' must be a non-empty string")
    arrival = payload.get("arrival")
    if arrival is not None:
        _require(isinstance(arrival, int) and not isinstance(arrival, bool)
                 and arrival >= 0,
                 "field 'arrival' must be a non-negative integer slot")

    durations = payload.get("task_durations")
    _require(isinstance(durations, list) and len(durations) > 0,
             "field 'task_durations' must be a non-empty list of slots")
    assert isinstance(durations, list)
    for k, d in enumerate(durations):
        _require(isinstance(d, int) and not isinstance(d, bool) and d >= 1,
                 f"task_durations[{k}] must be an integer >= 1 slot")

    utility_config = payload.get("utility")
    if utility_config is not None:
        _require(isinstance(utility_config, Mapping),
                 "field 'utility' must be a utility-config object")
        try:  # validate eagerly so the submit fails, not a later tick
            utility_from_config(utility_config)
        except ConfigurationError as exc:
            raise BadRequestError(f"field 'utility': {exc}") from None

    sensitivity = payload.get("sensitivity", "sensitive")
    _require(sensitivity in SENSITIVITIES,
             f"field 'sensitivity' must be one of {', '.join(SENSITIVITIES)}")
    template = payload.get("template", "")
    _require(isinstance(template, str), "field 'template' must be a string")

    budget = _opt_float(payload, "budget", math.inf)
    _require(budget > 0, "field 'budget' must be positive")
    failure_prob = _opt_float(payload, "failure_prob", 0.0)
    _require(0.0 <= failure_prob < 1.0,
             "field 'failure_prob' must be in [0, 1)")
    prior = payload.get("prior_runtime")
    prior_runtime = (_opt_float(payload, "prior_runtime", 0.0)
                     if prior is not None else None)
    _require(prior_runtime is None or prior_runtime > 0,
             "field 'prior_runtime' must be positive")
    idempotency_key = payload.get("idempotency_key")
    _require(idempotency_key is None
             or (isinstance(idempotency_key, str) and idempotency_key),
             "field 'idempotency_key' must be a non-empty string")

    return SubmitRequest(
        tenant=tenant, job_id=job_id, arrival=arrival,
        task_durations=tuple(int(d) for d in durations),
        utility_config=utility_config,
        priority=_opt_float(payload, "priority", 1.0),
        budget=budget,
        benchmark_runtime=_opt_float(payload, "benchmark_runtime", math.nan),
        sensitivity=str(sensitivity), template=template,
        prior_runtime=prior_runtime, failure_prob=failure_prob,
        idempotency_key=idempotency_key)


def submit_payload_from_spec(spec: JobSpec,
                             tenant: Optional[str] = None) -> Dict[str, Any]:
    """Render a spec as a submit body (the replay/smoke client path)."""
    payload = spec_to_dict(spec)
    # The trace format encodes "no budget" as null; the submit schema
    # simply omits optional fields.
    for field in ("budget", "benchmark_runtime", "prior_runtime"):
        if payload.get(field) is None:
            del payload[field]
    if tenant is not None:
        payload["tenant"] = tenant
    return payload


def records_digest(records: Any) -> str:
    """Canonical digest over completed-job outcomes.

    Works on any iterable of :class:`~repro.cluster.metrics.JobRecord`,
    so a simulator-path :class:`SimulationResult` and a service-path
    engine digest the same way — the smoke battery's equivalence check.
    """
    rows = [{
        "job_id": r.job_id, "arrival": r.arrival, "runtime": r.runtime,
        "utility_value": r.utility_value, "completed": r.completed,
    } for r in records]
    rows.sort(key=lambda row: str(row["job_id"]))
    return canonical_digest(rows)


def error_payload(exc: ServiceError) -> Dict[str, Any]:
    """The canonical JSON body for a typed service error."""
    return {"error": {"code": exc.code, "status": exc.status,
                      "message": str(exc)}}


def _canonical_json(obj: Any) -> str:
    """The canonical JSON form both digests below hash."""
    return json.dumps(scrub_nonfinite(obj), sort_keys=True,
                      separators=(",", ":"))


def canonical_digest(obj: Any) -> str:
    """SHA-256 over the canonical JSON form of ``obj``.

    Canonical means sorted keys, minimal separators, and non-finite
    floats mapped to null — the same conventions the scenario artifacts
    use, so digests are comparable across the simulator path and the
    service path.
    """
    return hashlib.sha256(_canonical_json(obj).encode("utf-8")).hexdigest()


class RollingDigest:
    """:func:`canonical_digest` of an append-only list, paid per item once.

    The canonical JSON of a list is ``"["``, its items' canonical JSON
    joined by ``","``, then ``"]"``.  So the hash keeps a SHA-256 that
    has been fed ``"["`` and every item folded so far; :meth:`extend`
    feeds one batch of new items, and :meth:`hexdigest` closes a copy
    with ``"]"``.  After folding ``items[:n]`` in any batching,
    ``hexdigest() == canonical_digest(list(items[:n]))`` — the empty
    list included.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256(b"[")
        #: How many items have been folded in.
        self.items = 0

    def extend(self, items: Sequence[Any]) -> None:
        """Fold the next ``items`` of the list, in order."""
        if not items:
            return
        blob = _canonical_json(list(items))[1:-1]
        if self.items:
            blob = "," + blob
        self._sha.update(blob.encode("utf-8"))
        self.items += len(items)

    def hexdigest(self) -> str:
        """The digest of everything folded so far."""
        closed = self._sha.copy()
        closed.update(b"]")
        return closed.hexdigest()
