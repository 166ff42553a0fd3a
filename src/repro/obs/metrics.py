"""Metrics registry: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named metric *families*; each family
carries values keyed by a (possibly empty) label set, mirroring the
Prometheus data model.  Two export formats are supported:

- :meth:`MetricsRegistry.to_json` — a nested JSON-compatible dict for
  programmatic consumption (tests, dashboards, the runner's
  ``--metrics-out``);
- :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, ``_bucket`` /
  ``_sum`` / ``_count`` series for histograms) for scrape-compatible
  snapshots.

Histograms use **fixed bucket bounds** chosen at registration, so two
runs of the same build always export the same series — no dynamic
bucketing that would make snapshots incomparable.

The registry is pure bookkeeping: it never reads a clock or an RNG, so
attaching it to a run cannot perturb determinism.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "EngineMetrics",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PHASE_SECONDS_BUCKETS",
    "PARTICIPANTS_BUCKETS",
]

#: Default bucket bounds (seconds) for engine phase-time histograms:
#: sub-millisecond bookkeeping through multi-second evaluation passes.
PHASE_SECONDS_BUCKETS = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Default bucket bounds for per-round participant counts.
PARTICIPANTS_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    # Prometheus text exposition format: label values escape backslash,
    # double-quote and line-feed (in that order, so the backslashes
    # introduced for quotes/newlines are not re-escaped).
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # HELP lines escape backslash and line-feed only.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Family:
    """Shared bookkeeping of one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Family):
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }

    def render(self) -> List[str]:
        lines = self._header()
        for key, value in sorted(self._values.items()):
            lines.append(
                f"{self.name}{_render_labels(key)} {_format_value(value)}"
            )
        return lines


class Gauge(_Family):
    """Last-write-wins instantaneous values."""

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> Optional[float]:
        return self._values.get(_label_key(labels))

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }

    def render(self) -> List[str]:
        lines = self._header()
        for key, value in sorted(self._values.items()):
            lines.append(
                f"{self.name}{_render_labels(key)} {_format_value(value)}"
            )
        return lines


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    """Cumulative-bucket histogram with fixed, registration-time bounds."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: Sequence[float]
    ) -> None:
        super().__init__(name, help)
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]
        #: Finite upper bounds; the +Inf bucket is implicit.
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._states: Dict[LabelKey, _HistogramState] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState(len(self.bounds) + 1)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                state.bucket_counts[i] += 1
                break
        else:
            state.bucket_counts[-1] += 1
        state.total += float(value)
        state.count += 1

    def snapshot(self, **labels: str) -> Optional[dict]:
        """Cumulative bucket counts, sum and count for one label set."""
        state = self._states.get(_label_key(labels))
        if state is None:
            return None
        cumulative: List[int] = []
        running = 0
        for c in state.bucket_counts:
            running += c
            cumulative.append(running)
        return {
            "buckets": {
                **{
                    _format_value(b): cumulative[i]
                    for i, b in enumerate(self.bounds)
                },
                "+Inf": cumulative[-1],
            },
            "sum": state.total,
            "count": state.count,
        }

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "bounds": list(self.bounds),
            "values": [
                {"labels": dict(key), **self.snapshot(**dict(key))}
                for key in sorted(self._states)
            ],
        }

    def render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._states):
            snap = self.snapshot(**dict(key))
            for bound, cum in snap["buckets"].items():
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, [('le', bound)])} {cum}"
                )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(snap['sum'])}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {snap['count']}")
        return lines


class MetricsRegistry:
    """Registry of metric families, exportable as JSON or Prometheus text."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family):
                raise ValueError(
                    f"metric {family.name!r} already registered as "
                    f"{existing.kind}"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter family ``name`` (idempotent)."""
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge family ``name`` (idempotent)."""
        return self._register(Gauge(name, help))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = PHASE_SECONDS_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram family ``name`` (idempotent)."""
        return self._register(Histogram(name, help, buckets))  # type: ignore[return-value]

    def families(self) -> List[str]:
        return sorted(self._families)

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    # -- export --------------------------------------------------------------

    def to_json(self) -> Dict[str, dict]:
        """Every family's full state as a JSON-compatible dict."""
        return {
            name: family.to_json()
            for name, family in sorted(self._families.items())
        }

    def write_json(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format snapshot."""
        lines: List[str] = []
        for _name, family in sorted(self._families.items()):
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render_prometheus())


class EngineMetrics:
    """Subscriber that keeps the engine's metric families on a registry.

    Registers every family in :attr:`FAMILIES` up front, so a scrape or
    a health rule sees a zero-valued counter, not a missing one, before
    the first fault, stale sync or late admit.  ``topology`` /
    ``aggregation`` label the sync counter (set when the handle binds
    to a run).
    """

    #: attribute → (kind, family name, help); histograms take their
    #: bounds from :attr:`BUCKETS`.
    FAMILIES = {
        "steps": ("counter", "repro_steps_total", "Completed HFL time steps"),
        "step_latency": ("gauge", "repro_step_latency_seconds",
                         "Wall-clock of the most recent full engine step"),
        "phase_seconds": ("histogram", "repro_phase_seconds",
                          "Engine wall-clock per phase call"),
        "rounds": ("counter", "repro_rounds_total",
                   "Finished (step, edge) training rounds"),
        "participants": ("counter", "repro_participants_total",
                         "Device uploads that reached aggregation"),
        "round_participants": ("histogram", "repro_round_participants",
                               "Surviving participants per round"),
        "faults": ("counter", "repro_faults_total", "Injected faults by kind"),
        "degraded": ("counter", "repro_degraded_rounds_total",
                     "Rounds that lost at least one sampled upload"),
        "lost": ("counter", "repro_lost_rounds_total",
                 "Rounds that lost every sampled upload"),
        "stale_syncs": ("counter", "repro_stale_syncs_total",
                        "Sync steps where an edge fell back to its stale model"),
        "backoff": ("counter", "repro_backoff_seconds_total",
                    "Simulated edge-to-cloud retry backoff"),
        "syncs": ("counter", "repro_syncs_total",
                  "Sync steps completed, by topology and aggregation strategy"),
        "joined": ("counter", "repro_devices_joined_total",
                   "Churn arrivals (enrollments)"),
        "left": ("counter", "repro_devices_left_total",
                 "Churn departures (de-enrollments)"),
        "active": ("gauge", "repro_active_devices",
                   "Enrolled devices after the latest churn transition"),
        "late_admits": ("counter", "repro_late_admits_total",
                        "Parked late uploads admitted into a later aggregate"),
        "late_drops": ("counter", "repro_late_drops_total",
                       "Parked late uploads dropped (device de-enrolled)"),
        "staleness_age": ("histogram", "repro_staleness_age_steps",
                          "Age in steps of admitted late uploads"),
        "stale_buffer": ("gauge", "repro_stale_buffer_size",
                         "Late uploads currently parked in the staleness buffer"),
        "accuracy": ("gauge", "repro_eval_accuracy",
                     "Latest global-model test accuracy"),
        "loss": ("gauge", "repro_eval_loss", "Latest global-model test loss"),
        "checkpoints": ("counter", "repro_checkpoints_total",
                        "Resumable checkpoints written"),
    }
    BUCKETS = {
        "phase_seconds": PHASE_SECONDS_BUCKETS,
        "round_participants": PARTICIPANTS_BUCKETS,
        "staleness_age": (1.0, 2.0, 3.0, 5.0, 8.0, 13.0),
    }

    def __init__(self, registry: MetricsRegistry) -> None:
        self.topology = "hierarchical"
        self.aggregation = "ipw"
        for attr, (kind, name, help) in self.FAMILIES.items():
            if kind == "histogram":
                family = registry.histogram(name, help, self.BUCKETS[attr])
            else:
                family = getattr(registry, kind)(name, help)
            setattr(self, attr, family)

    def record_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds.observe(seconds, phase=phase)

    def record_round(
        self, t, edge, members, probabilities, participant_ids,
        grad_sq_norms, losses,
    ) -> None:
        self.rounds.inc(edge=str(edge))
        self.participants.inc(len(participant_ids))
        self.round_participants.observe(len(participant_ids))

    def record_faults(self, t, edge, failures, num_sampled) -> None:
        for kind in failures.values():
            self.faults.inc(kind=kind)
        self.degraded.inc()
        if len(failures) == num_sampled:
            self.lost.inc()

    def record_sync_attempt(
        self, t, edge, failed_attempts, used_stale, backoff_seconds
    ) -> None:
        if failed_attempts > 0:
            self.faults.inc(failed_attempts, kind="sync_failure")
        if used_stale:
            self.stale_syncs.inc()
        self.backoff.inc(backoff_seconds)

    def record_sync(self, uploads: int, broadcasts: int, model_bytes: int) -> None:
        self.syncs.inc(topology=self.topology, aggregation=self.aggregation)

    def record_churn(self, t, joined, left, num_active) -> None:
        if joined:
            self.joined.inc(len(joined))
        if left:
            self.left.inc(len(left))
        self.active.set(float(num_active))

    def record_late_admit(self, t, edge, device, born_step, age, scale) -> None:
        self.late_admits.inc()
        self.staleness_age.observe(float(age))

    def record_late_drop(self, t, edge, device, born_step, age) -> None:
        self.late_drops.inc()

    def record_stale_buffer(self, size: int) -> None:
        self.stale_buffer.set(float(size))

    def record_eval(self, step: int, accuracy: float, loss: float) -> None:
        self.accuracy.set(accuracy)
        self.loss.set(loss)

    def record_checkpoint(self, step: int, path) -> None:
        self.checkpoints.inc()

    def end_step(self, t: int, seconds: float) -> None:
        self.steps.inc()
        self.step_latency.set(seconds)
