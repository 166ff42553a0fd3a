"""Resource accounting: memory, payload bytes and wait time as metrics.

Mobility-HFL systems are communication-bound: the quantities that decide
whether a deployment is feasible are the bytes shipped per
device↔edge round and per sync exchange, the host memory the engine
holds, and the simulated time burned on sync retries.  This module
turns those one-off benchmark numbers into continuously exported
metrics.

:class:`ResourceAccountant` registers the following families on an
existing :class:`~repro.obs.metrics.MetricsRegistry`, so they flow
through the same JSON / Prometheus exporters as everything else:

- ``repro_payload_bytes_total{exchange,direction,topology,aggregation}``
  — model payload bytes, where ``exchange`` is ``device_edge`` (device
  downloads the edge model, uploads its update), ``edge_sync`` (edge
  uploads and sync broadcasts — cloud or peer exchange depending on
  topology) or ``stale_admit`` (late straggler deltas);
- ``repro_payload_exchanges_total{...}`` — count of individual model
  transfers behind those bytes;
- ``repro_rss_current_mb`` / ``repro_rss_peak_mb`` — resident set size
  gauges sampled per step (Linux ``/proc/self/statm`` and
  ``getrusage``; gauges simply stay unset on platforms without them);
- ``repro_wait_seconds_total{kind}`` — accumulated waits by kind; the
  engine reports simulated sync-retry backoff (``kind="backoff"``).

The ``record_*`` / ``end_step`` methods double as subscriber hooks of
:class:`repro.obs.Observability`.  The accountant is a pure observer —
counters and gauges only, no RNG, no model state — so attaching it
preserves bit-identity.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ResourceAccountant",
    "current_rss_mb",
    "peak_rss_mb",
]


def current_rss_mb() -> Optional[float]:
    """Current resident set size in MiB, or ``None`` if unavailable."""
    try:
        import os

        with open("/proc/self/statm") as fh:
            fields = fh.read().split()
        pages = int(fields[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        return None


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size in MiB, or ``None`` if unavailable."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


class ResourceAccountant:
    """Per-round resource accounting registered on a metrics registry."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        topology: str = "hierarchical",
        aggregation: str = "ipw",
    ) -> None:
        self.metrics = metrics
        self.topology = str(topology)
        self.aggregation = str(aggregation)
        self._payload_bytes = metrics.counter(
            "repro_payload_bytes_total",
            "Model payload bytes shipped per exchange",
        )
        self._payload_exchanges = metrics.counter(
            "repro_payload_exchanges_total",
            "Individual model transfers per exchange",
        )
        self._rss_current = metrics.gauge(
            "repro_rss_current_mb", "Current resident set size (MiB)"
        )
        self._rss_peak = metrics.gauge(
            "repro_rss_peak_mb", "Peak resident set size (MiB)"
        )
        self._wait_seconds = metrics.counter(
            "repro_wait_seconds_total",
            "Wall-clock accumulated in backoff/stale-admission waits",
        )
        # Python-side mirrors for summary() so exporters stay optional.
        self._bytes_by_exchange: Dict[str, float] = {}
        self._waits: Dict[str, float] = {}

    # -- payload accounting --------------------------------------------------

    def _ship(self, exchange: str, direction: str, transfers: int,
              nbytes: float) -> None:
        if transfers <= 0 or nbytes <= 0:
            return
        total = float(transfers) * float(nbytes)
        labels = {
            "exchange": exchange,
            "direction": direction,
            "topology": self.topology,
            "aggregation": self.aggregation,
        }
        self._payload_bytes.inc(total, **labels)
        self._payload_exchanges.inc(float(transfers), **labels)
        key = f"{exchange}/{direction}"
        self._bytes_by_exchange[key] = (
            self._bytes_by_exchange.get(key, 0.0) + total
        )

    def record_device_round(self, downloads: int, uploads: int,
                            model_bytes: int) -> None:
        """One edge round: every sampled device downloads the edge
        model; ``uploads`` of them shipped a reply this round (a parked
        straggler's payload travels later, at admission)."""
        self._ship("device_edge", "down", downloads, model_bytes)
        self._ship("device_edge", "up", uploads, model_bytes)

    def record_sync(self, uploads: int, broadcasts: int,
                    model_bytes: int) -> None:
        """One global sync: ``uploads`` edge models shipped up (or to
        peers, under gossip), ``broadcasts`` models shipped back down."""
        self._ship("edge_sync", "up", uploads, model_bytes)
        self._ship("edge_sync", "down", broadcasts, model_bytes)

    def record_stale_admit(self, admits: int, model_bytes: int) -> None:
        """Late straggler uploads admitted after the staleness window."""
        self._ship("stale_admit", "up", admits, model_bytes)

    # -- wait accounting -----------------------------------------------------

    def record_wait(self, kind: str, seconds: float) -> None:
        if seconds <= 0:
            return
        self._wait_seconds.inc(float(seconds), kind=kind)
        self._waits[kind] = self._waits.get(kind, 0.0) + float(seconds)

    def record_sync_attempt(self, t: int, edge: int, failed_attempts: int,
                            used_stale: bool, backoff_seconds: float) -> None:
        """Engine record: an edge's sync retries waited ``backoff_seconds``."""
        self.record_wait("backoff", backoff_seconds)

    # -- memory sampling -----------------------------------------------------

    def end_step(self, t: int, seconds: float) -> None:
        """Engine step-end record: sample the RSS gauges."""
        self.sample_memory()

    def sample_memory(self) -> Dict[str, Optional[float]]:
        """Sample current/peak RSS into the gauges; returns the values."""
        current = current_rss_mb()
        peak = peak_rss_mb()
        if current is not None:
            self._rss_current.set(current)
        if peak is not None:
            self._rss_peak.set(peak)
        return {"current_mb": current, "peak_mb": peak}

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        total_bytes = sum(self._bytes_by_exchange.values())
        return {
            "topology": self.topology,
            "aggregation": self.aggregation,
            "payload_bytes_total": total_bytes,
            "payload_mb_total": round(total_bytes / (1024.0 * 1024.0), 3),
            "payload_bytes_by_exchange": dict(
                sorted(self._bytes_by_exchange.items())
            ),
            "wait_seconds": dict(sorted(self._waits.items())),
            "rss_current_mb": self._rss_current.value(),
            "rss_peak_mb": self._rss_peak.value(),
        }
