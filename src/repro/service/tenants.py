"""Multi-tenant admission layered on the capacity-scheduler queues.

The daemon serves several clients ("tenants") from one cluster.  Tenancy
has two halves here:

* **Admission** — every submission maps to a tenant; a tenant may carry
  a ``max_active`` quota on concurrently live (queued or running) jobs,
  refused with the typed 429 :class:`~repro.errors.TenantQuotaError`.
* **Capacity** — under the ``capacity`` policy the tenant shares *are*
  the queue shares of the existing
  :class:`~repro.schedulers.capacity.CapacityScheduler`: each tenant
  becomes a queue with its guaranteed fraction, borrowing idle capacity
  exactly as the YARN baseline does.  Under planning policies (RUSH),
  tenancy stays an admission/accounting layer and the planner optimizes
  across tenants globally — the paper's robust objective is already
  job-level, so per-tenant fairness is delegated to quotas.

The registry is deterministic state: it is rebuilt identically from the
journal on recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro import state as st
from repro.cluster.job import JobSpec
from repro.errors import (BadRequestError, ConfigurationError,
                          TenantQuotaError)
from repro.schedulers.capacity import CapacityScheduler

__all__ = ["TenantSpec", "TenantRegistry", "DEFAULT_TENANT"]

DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's frozen configuration.

    ``share`` is its guaranteed capacity fraction (the queue share under
    the capacity policy; shares must sum to 1 across tenants).
    ``max_active`` bounds concurrently live jobs; ``None`` means
    unlimited.
    """

    name: str
    share: float = 1.0
    max_active: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not 0.0 < self.share <= 1.0:
            raise ConfigurationError(
                f"tenant {self.name!r}: share must be in (0, 1], "
                f"got {self.share}")
        if self.max_active is not None and self.max_active < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: max_active must be >= 1, "
                f"got {self.max_active}")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "share": self.share,
                "max_active": self.max_active}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpec":
        try:
            max_active = data.get("max_active")
            return cls(name=str(data["name"]),
                       share=float(data.get("share", 1.0)),
                       max_active=(int(max_active)
                                   if max_active is not None else None))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed tenant spec: {exc}") from None


class TenantRegistry:
    """Job→tenant bookkeeping plus quota admission.

    Live counts move on the engine's lifecycle notifications (admit,
    complete, cancel), so quota decisions depend only on the journaled
    event sequence — never on wall time.
    """

    def __init__(self, tenants: Sequence[TenantSpec] = ()) -> None:
        specs = list(tenants) or [TenantSpec(name=DEFAULT_TENANT)]
        names = [t.name for t in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate tenant names in {names}")
        total = sum(t.share for t in specs)
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"tenant shares must sum to 1, got {total}")
        self._tenants: Dict[str, TenantSpec] = {t.name: t for t in specs}
        self._owner: Dict[str, str] = {}
        self._live: Dict[str, Set[str]] = {
            name: set() for name in self._tenants}
        self._submitted: Dict[str, int] = {name: 0 for name in self._tenants}

    @property
    def names(self) -> List[str]:
        return sorted(self._tenants)

    @property
    def default_tenant(self) -> str:
        if DEFAULT_TENANT in self._tenants:
            return DEFAULT_TENANT
        return self.names[0]

    def spec(self, name: str) -> TenantSpec:
        try:
            return self._tenants[name]
        except KeyError:
            raise BadRequestError(
                f"unknown tenant {name!r}; known: "
                f"{', '.join(self.names)}") from None

    def tenant_of(self, job_id: str) -> Optional[str]:
        """The tenant that owns ``job_id``; ``None`` for an unknown job."""
        return self._owner.get(job_id)

    def job_ids(self) -> List[str]:
        """Every job ever admitted, sorted — the service's job index."""
        return sorted(self._owner)

    # -- admission ------------------------------------------------------

    def admissible(self, tenant: Optional[str]) -> str:
        """The tenant name ``tenant`` resolves to, if it may take one
        more live job; raises otherwise.  Claims nothing."""
        name = tenant if tenant is not None else self.default_tenant
        spec = self.spec(name)
        if (spec.max_active is not None
                and len(self._live[name]) >= spec.max_active):
            raise TenantQuotaError(
                f"tenant {name!r} is at its max_active quota "
                f"({spec.max_active} live job(s)); retry later")
        return name

    def admit(self, tenant: Optional[str], job_id: str) -> str:
        """Claim a live-job slot for ``job_id``; returns the tenant name."""
        name = self.admissible(tenant)
        self._owner[job_id] = name
        self._live[name].add(job_id)
        self._submitted[name] += 1
        return name

    def release(self, job_id: str) -> None:
        """A job left the live set (completed or cancelled); idempotent."""
        name = self._owner.get(job_id)
        if name is not None:
            self._live[name].discard(job_id)

    # -- state ----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Owners in admission order, live sets and submit counts; the
        tenant specs come from the configuration."""
        return {"owner": [[job_id, name] for job_id, name
                          in self._owner.items()],
                "live": {name: sorted(live)
                         for name, live in self._live.items()},
                "submitted": dict(self._submitted)}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Take back :meth:`state_dict`'s output on a registry built from
        the same tenant specs."""
        owner = {job_id: name for job_id, name in (
            st.row(pair, st.name, st.name)
            for pair in st.array(state["owner"]))}
        live = {name: {st.name(job_id) for job_id in st.array(ids)}
                for name, ids in st.mapping(state["live"]).items()}
        submitted = {name: st.integer(count) for name, count
                     in st.mapping(state["submitted"]).items()}
        if not set(live) == set(submitted) == set(self._tenants) \
                or not set(owner.values()) <= set(self._tenants):
            raise ValueError("the state names tenants the config does not")
        self._owner, self._live, self._submitted = owner, live, submitted

    # -- scheduler integration -----------------------------------------

    def capacity_scheduler(self) -> CapacityScheduler:
        """The tenant queues as a YARN-style capacity scheduler.

        The ``queue_for`` closure reads this registry, so jobs admitted
        later (with ids unknown at construction) still route to their
        tenant's queue.
        """
        shares = {name: spec.share for name, spec in self._tenants.items()}

        def queue_for(spec: JobSpec) -> str:
            return self._owner.get(spec.job_id, self.default_tenant)

        return CapacityScheduler(queue_shares=shares, queue_for=queue_for)

    # -- reporting ------------------------------------------------------

    def status(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names:
            spec = self._tenants[name]
            out[name] = {
                "share": spec.share,
                "max_active": spec.max_active,
                "live_jobs": len(self._live[name]),
                "submitted_total": self._submitted[name],
            }
        return out

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [self._tenants[name].to_dict() for name in self.names]


def tenants_from_dicts(data: Sequence[Mapping[str, Any]]
                       ) -> Tuple[TenantSpec, ...]:
    """Parse a tenant list from JSON (CLI --tenants / anchor config)."""
    return tuple(TenantSpec.from_dict(item) for item in data)
