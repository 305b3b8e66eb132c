"""``repro.service`` — the asyncio scheduler daemon around the core.

The deterministic RUSH core (simulator, planners, estimators) is driven
here through the :class:`~repro.core.clock.Clock` /
:class:`~repro.core.clock.EventSource` protocols instead of the batch
``run_simulation`` loop:

* :class:`~repro.service.engine.ServiceEngine` — the synchronous,
  journal-backed core: submit/cancel/query/tick, multi-tenant admission,
  degradation-aware job status;
* :class:`~repro.service.daemon.ServiceDaemon` — the stdlib-asyncio
  HTTP front end (JSON endpoints, NDJSON ``/stream``, Prometheus
  ``/metrics``), paced by :class:`~repro.service.clock.RealTimeClock`
  or driven manually through ``POST /tick``;
* :mod:`~repro.service.journal` — the write-ahead journal behind
  ``rush serve --journal-dir``, the one way the service survives a
  restart: every event is fsynced before it is applied, and recovery
  loads the engine state its :mod:`~repro.service.snapshot`-encoded
  anchor holds, then replays the records after it, verified against
  the decision-stream digest;
* :class:`~repro.service.client.ServiceClient` and
  :mod:`~repro.service.smoke` — the test/CI side of the same wire
  protocol.

This package is the sanctioned wall-clock carve-out from the RL002
determinism lint: real time exists only in
:class:`~repro.service.clock.RealTimeClock`, and everything below the
daemon stays a pure function of (config, journal).  See
``docs/SERVICE.md``.
"""

from repro.service.client import (ServiceClient, ServiceRequestError,
                                  ServiceUnavailableError)
from repro.service.clock import RealTimeClock
from repro.service.daemon import ServiceDaemon
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.service.journal import (JournalCorruptError, JournalWriteError,
                                   JournalWriter, RealFileOps,
                                   atomic_write_text, open_journal,
                                   recover_engine)
from repro.service.protocol import (canonical_digest, error_payload,
                                    parse_submit, records_digest,
                                    submit_payload_from_spec)
from repro.service.smoke import run_crash_smoke, run_service_smoke
from repro.service.snapshot import (SnapshotError, load_snapshot,
                                    restore_engine, take_snapshot)
from repro.service.tenants import (DEFAULT_TENANT, TenantRegistry,
                                   TenantSpec, tenants_from_dicts)

__all__ = [
    "ServiceClient", "ServiceRequestError", "ServiceUnavailableError",
    "RealTimeClock", "ServiceDaemon", "ServiceConfig", "ServiceEngine",
    "JournalCorruptError", "JournalWriteError", "JournalWriter",
    "RealFileOps", "atomic_write_text", "open_journal", "recover_engine",
    "canonical_digest", "error_payload", "parse_submit", "records_digest",
    "submit_payload_from_spec", "run_service_smoke", "run_crash_smoke",
    "SnapshotError", "load_snapshot", "restore_engine", "take_snapshot",
    "DEFAULT_TENANT", "TenantRegistry", "TenantSpec", "tenants_from_dicts",
]
