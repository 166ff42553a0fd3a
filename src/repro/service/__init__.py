"""repro.service — the always-on HFL coordinator and its transports.

Three layers, thinnest on top:

- :mod:`repro.service.coordinator` — the service itself: a scenario
  registry + dispatcher thread driving the trainer's step generator,
  with pause/resume/stop, periodic checksummed checkpoints and crash recovery;
- :mod:`repro.service.http` — stdlib JSON/JSONL endpoints over the same
  surface (plus the Prometheus scrape and the health probe);
- :mod:`repro.service.client` — a urllib client returning the same
  typed objects the in-process coordinator returns.

Most callers should go through :mod:`repro.api` instead of importing
from here — the facade is the stability contract.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.coordinator import (
    Coordinator,
    QueueFullError,
    UnknownRunError,
)
from repro.service.http import API_VERSION, CoordinatorServer, serve
from repro.service.types import (
    RUN_STATES,
    TERMINAL_STATES,
    RoundStatus,
    RunResultSummary,
    RunStatus,
)

__all__ = [
    "API_VERSION",
    "Coordinator",
    "CoordinatorServer",
    "QueueFullError",
    "RoundStatus",
    "RunResultSummary",
    "RunStatus",
    "RUN_STATES",
    "ServiceClient",
    "ServiceError",
    "TERMINAL_STATES",
    "UnknownRunError",
    "serve",
]
