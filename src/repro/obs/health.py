"""Health/SLO layer: declarative rolling-window rules over the metrics.

This is the SLO substrate for the planned always-on coordinator
service: instead of grepping benchmark output, a run declares
:class:`HealthRule`\\ s — rolling-window conditions over metric families
already in the :class:`~repro.obs.metrics.MetricsRegistry` — and a
:class:`HealthMonitor` samples the registry each step and folds them
into a liveness/readiness-style :class:`HealthReport` with
``ok`` / ``degraded`` / ``failing`` verdicts.

Rule kinds (all thresholds are "higher is worse", with
``degraded <= failing``):

- ``gauge_p95`` — p95 of a gauge's last ``window`` samples (e.g. step
  latency);
- ``gauge_value`` — the gauge's latest value (e.g. stale-buffer size);
- ``counter_rate`` — a counter's per-step increase averaged over the
  window (e.g. sync failures per step);
- ``counter_ratio`` — increase of one counter divided by increase of
  another over the window (e.g. late admits per round);
- ``counter_age`` — steps since a counter last increased (e.g.
  checkpoint age).

A rule whose metric family does not exist (or is a gauge with no
samples yet) evaluates to *no data*, which is ``ok`` — an unknown
signal must not fail a liveness probe.  A registered counter reads 0
until its first increment, so that increment falls inside the rule's
window.  The monitor itself is a pure observer: it reads
the registry, never the run's RNG or model state, so health checks
cannot perturb determinism.

The overall verdict (worst rule) is exported as the
``repro_health_status`` gauge (0 ok / 1 degraded / 2 failing, labeled
per rule plus ``rule="overall"``), transitions are recorded for the
runner's ``--health-out`` artifact, and the event log records a
``health`` event whenever the overall verdict changes.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import Counter, Gauge, MetricsRegistry

__all__ = [
    "HealthRule",
    "HealthReport",
    "HealthMonitor",
    "default_rules",
    "VERDICT_OK",
    "VERDICT_DEGRADED",
    "VERDICT_FAILING",
]

VERDICT_OK = "ok"
VERDICT_DEGRADED = "degraded"
VERDICT_FAILING = "failing"
_VERDICT_RANK = {VERDICT_OK: 0, VERDICT_DEGRADED: 1, VERDICT_FAILING: 2}

_RULE_KINDS = (
    "gauge_p95",
    "gauge_value",
    "counter_rate",
    "counter_ratio",
    "counter_age",
)


@dataclass(frozen=True)
class HealthRule:
    """One declarative rolling-window condition over a metric family."""

    name: str
    kind: str
    metric: str
    degraded: float
    failing: float
    window: int = 50
    #: Second counter family for ``counter_ratio`` denominators.
    denominator: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise ValueError(
                f"unknown rule kind {self.kind!r}; expected one of "
                f"{_RULE_KINDS}"
            )
        if self.failing < self.degraded:
            raise ValueError(
                f"rule {self.name!r}: failing threshold {self.failing} "
                f"below degraded threshold {self.degraded}"
            )
        if self.window < 1:
            raise ValueError(f"rule {self.name!r}: window must be >= 1")
        if self.kind == "counter_ratio" and not self.denominator:
            raise ValueError(
                f"rule {self.name!r}: counter_ratio needs a denominator"
            )

    def verdict(self, value: Optional[float]) -> str:
        if value is None or value != value:  # no data / NaN
            return VERDICT_OK
        if value >= self.failing:
            return VERDICT_FAILING
        if value >= self.degraded:
            return VERDICT_DEGRADED
        return VERDICT_OK

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "degraded": self.degraded,
            "failing": self.failing,
            "window": self.window,
        }
        if self.denominator:
            out["denominator"] = self.denominator
        return out


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time evaluation of every rule plus the overall verdict."""

    step: int
    verdict: str
    rules: Tuple[dict, ...] = field(default_factory=tuple)

    @property
    def ready(self) -> bool:
        """Readiness-style check: not failing."""
        return self.verdict != VERDICT_FAILING

    @property
    def live(self) -> bool:
        """Liveness-style check: the monitor is receiving samples."""
        return True

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "verdict": self.verdict,
            "ready": self.ready,
            "live": self.live,
            "rules": list(self.rules),
        }


def default_rules(checkpoint_every: Optional[int] = None) -> List[HealthRule]:
    """The stock SLO rule set for an engine run.

    The thresholds are deliberately generous defaults for the simulator
    workloads; a service deployment would declare its own.  The
    checkpoint-age rule is only included when checkpointing is actually
    configured — demanding checkpoints from a run that never writes
    them would fail vacuously.
    """
    rules = [
        HealthRule(
            name="step_latency_p95",
            kind="gauge_p95",
            metric="repro_step_latency_seconds",
            degraded=1.0,
            failing=10.0,
            window=50,
        ),
        HealthRule(
            name="sync_failure_rate",
            kind="counter_rate",
            metric="repro_stale_syncs_total",
            degraded=0.25,
            failing=0.75,
            window=50,
        ),
        HealthRule(
            name="late_admit_ratio",
            kind="counter_ratio",
            metric="repro_late_admits_total",
            denominator="repro_rounds_total",
            degraded=0.25,
            failing=0.75,
            window=50,
        ),
        HealthRule(
            name="lost_round_rate",
            kind="counter_rate",
            metric="repro_lost_rounds_total",
            degraded=0.25,
            failing=0.75,
            window=50,
        ),
    ]
    if checkpoint_every is not None and checkpoint_every > 0:
        rules.append(
            HealthRule(
                name="checkpoint_age",
                kind="counter_age",
                metric="repro_checkpoints_total",
                degraded=float(3 * checkpoint_every),
                failing=float(10 * checkpoint_every),
                window=max(50, 10 * checkpoint_every),
            )
        )
    return rules


def _family_total(family: object) -> Optional[float]:
    """Sum a family's values across label sets.

    A registered counter that was never incremented reads 0.0, so its
    first increment counts towards the window; an unset gauge (and an
    unregistered family) reads None — no data.
    """
    if isinstance(family, Counter):
        return float(sum(family._values.values()))
    if isinstance(family, Gauge) and family._values:
        return float(sum(family._values.values()))
    return None


def _p95(values: List[float]) -> float:
    ordered = sorted(values)
    index = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[index]


class HealthMonitor:
    """Samples the registry each step and evaluates the rules."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        rules: Optional[List[HealthRule]] = None,
        check_every: int = 1,
    ) -> None:
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.metrics = metrics
        self.rules = list(rules) if rules is not None else default_rules()
        self.check_every = int(check_every)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self._status = metrics.gauge(
            "repro_health_status",
            "Health verdict per rule (0 ok, 1 degraded, 2 failing)",
        )
        #: Per-family rolling samples of (step, total).
        self._series: Dict[str, Deque[Tuple[int, float]]] = {}
        #: Per-counter step of last observed increase.
        self._last_increase: Dict[str, Optional[int]] = {}
        self._first_step: Optional[int] = None
        self._last_report: Optional[HealthReport] = None
        self._transitions: List[dict] = []
        self._samples_seen = 0
        max_window = max((r.window for r in self.rules), default=1)
        self._maxlen = max_window + 1
        for rule in self.rules:
            self._watch(rule.metric)
            if rule.denominator:
                self._watch(rule.denominator)

    def _watch(self, metric: str) -> None:
        if metric not in self._series:
            self._series[metric] = deque(maxlen=self._maxlen)
            self._last_increase[metric] = None

    # -- sampling ------------------------------------------------------------

    def observe(self, step: int) -> Optional[HealthReport]:
        """Sample every watched family at ``step``; evaluate when due.

        Returns the new :class:`HealthReport` on evaluation steps and
        ``None`` otherwise.
        """
        step = int(step)
        if self._first_step is None:
            self._first_step = step
        self._samples_seen += 1
        for metric, series in self._series.items():
            total = _family_total(self.metrics.get(metric))
            if total is None:
                continue
            if series and total > series[-1][1]:
                self._last_increase[metric] = step
            elif not series and total > 0:
                self._last_increase[metric] = step
            series.append((step, total))
        if self._samples_seen % self.check_every != 0:
            return None
        return self._evaluate(step)

    def end_step(self, t: int, seconds: float) -> None:
        """Engine step-end record: sample after ``t + 1`` steps have run."""
        self.observe(t + 1)

    # -- evaluation ----------------------------------------------------------

    def _window(self, rule: HealthRule, metric: str) -> List[Tuple[int, float]]:
        series = self._series.get(metric, ())
        return list(series)[-(rule.window + 1):]

    def _rule_value(self, rule: HealthRule) -> Optional[float]:
        window = self._window(rule, rule.metric)
        if not window:
            return None
        if rule.kind == "gauge_value":
            return window[-1][1]
        if rule.kind == "gauge_p95":
            return _p95([value for _, value in window[-rule.window:]])
        if rule.kind == "counter_age":
            last = self._last_increase.get(rule.metric)
            if last is None:
                # Never incremented: age only starts counting once the
                # signal has appeared at least once (no-data is ok).
                return None
            return float(window[-1][0] - last)
        if len(window) < 2:
            return None
        delta = window[-1][1] - window[0][1]
        steps = window[-1][0] - window[0][0]
        if rule.kind == "counter_rate":
            return delta / steps if steps > 0 else None
        if rule.kind == "counter_ratio":
            denom_window = self._window(rule, rule.denominator or "")
            if len(denom_window) < 2:
                return None
            denom_delta = denom_window[-1][1] - denom_window[0][1]
            if denom_delta <= 0:
                return None
            return delta / denom_delta
        raise AssertionError(f"unreachable rule kind {rule.kind!r}")

    def _evaluate(self, step: int) -> HealthReport:
        rows = []
        worst = VERDICT_OK
        for rule in self.rules:
            value = self._rule_value(rule)
            verdict = rule.verdict(value)
            if _VERDICT_RANK[verdict] > _VERDICT_RANK[worst]:
                worst = verdict
            self._status.set(float(_VERDICT_RANK[verdict]), rule=rule.name)
            row = rule.to_dict()
            row["value"] = value
            row["verdict"] = verdict
            rows.append(row)
        self._status.set(float(_VERDICT_RANK[worst]), rule="overall")
        report = HealthReport(step=step, verdict=worst, rules=tuple(rows))
        previous = self._last_report
        if previous is None or previous.verdict != report.verdict:
            self._transitions.append({
                "step": step,
                "from": previous.verdict if previous else None,
                "to": report.verdict,
            })
        self._last_report = report
        return report

    # -- export --------------------------------------------------------------

    @property
    def last_report(self) -> Optional[HealthReport]:
        return self._last_report

    @property
    def transitions(self) -> List[dict]:
        return list(self._transitions)

    def to_json(self) -> dict:
        return {
            "check_every": self.check_every,
            "samples_seen": self._samples_seen,
            "rules": [rule.to_dict() for rule in self.rules],
            "report": (
                self._last_report.to_dict() if self._last_report else None
            ),
            "transitions": list(self._transitions),
        }

    def write_json(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
