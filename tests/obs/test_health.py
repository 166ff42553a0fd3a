"""Health/SLO layer: rule reducers, verdict folding, monitor over a run."""

import json

import pytest

from repro.core.mach import MACHSampler
from repro.obs import (
    HealthMonitor,
    HealthRule,
    MetricsRegistry,
    Observability,
    default_rules,
)
from repro.obs.health import VERDICT_DEGRADED, VERDICT_FAILING, VERDICT_OK

from .conftest import build_obs_trainer


class TestHealthRule:
    def test_thresholds_fold_upward(self):
        rule = HealthRule("r", "gauge_value", "m", degraded=1.0, failing=2.0)
        assert rule.verdict(0.5) == VERDICT_OK
        assert rule.verdict(1.0) == VERDICT_DEGRADED
        assert rule.verdict(2.5) == VERDICT_FAILING

    def test_no_data_is_ok(self):
        rule = HealthRule("r", "gauge_value", "m", degraded=1.0, failing=2.0)
        assert rule.verdict(None) == VERDICT_OK
        assert rule.verdict(float("nan")) == VERDICT_OK

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown rule kind"):
            HealthRule("r", "median", "m", degraded=1, failing=2)
        with pytest.raises(ValueError, match="below degraded"):
            HealthRule("r", "gauge_value", "m", degraded=2, failing=1)
        with pytest.raises(ValueError, match="denominator"):
            HealthRule("r", "counter_ratio", "m", degraded=1, failing=2)


class TestReducers:
    def _monitor(self, rule):
        metrics = MetricsRegistry()
        return metrics, HealthMonitor(metrics, rules=[rule])

    def test_gauge_p95_over_window(self):
        rule = HealthRule("lat", "gauge_p95", "g", degraded=5.0,
                          failing=50.0, window=10)
        metrics, monitor = self._monitor(rule)
        gauge = metrics.gauge("g")
        for step in range(10):
            gauge.set(1.0 if step < 9 else 100.0)
            report = monitor.observe(step)
        # One 100.0 among ten samples: p95 picks the spike.
        (row,) = report.rules
        assert row["value"] == pytest.approx(100.0)
        assert report.verdict == VERDICT_FAILING

    def test_counter_rate_per_step(self):
        rule = HealthRule("faults", "counter_rate", "c_total",
                          degraded=0.5, failing=2.0, window=4)
        metrics, monitor = self._monitor(rule)
        counter = metrics.counter("c_total")
        report = None
        for step in range(5):
            counter.inc()  # one per step -> rate 1.0
            report = monitor.observe(step)
        (row,) = report.rules
        assert row["value"] == pytest.approx(1.0)
        assert report.verdict == VERDICT_DEGRADED

    def test_first_counter_increment_counts(self):
        """A registered counter reads 0 before its first increment, so
        that increment lands inside the rate window."""
        rule = HealthRule("faults", "counter_rate", "c_total",
                          degraded=0.5, failing=2.0, window=4)
        metrics, monitor = self._monitor(rule)
        counter = metrics.counter("c_total")
        values = []
        for step in range(8):
            if step == 3:
                counter.inc()
            (row,) = monitor.observe(step).rules
            values.append(row["value"])
        assert values[0] is None  # one sample: no rate yet
        assert values[5] == pytest.approx(0.25)
        assert values[7] == 0.0  # the increment has left the window

    def test_unset_gauge_is_still_no_data(self):
        rule = HealthRule("g", "gauge_value", "g", degraded=1.0, failing=2.0)
        metrics, monitor = self._monitor(rule)
        metrics.gauge("g")  # registered, never set
        (row,) = monitor.observe(0).rules
        assert row["value"] is None

    def test_counter_ratio_of_deltas(self):
        rule = HealthRule("late", "counter_ratio", "late_total",
                          degraded=0.4, failing=0.9, window=10,
                          denominator="rounds_total")
        metrics, monitor = self._monitor(rule)
        late = metrics.counter("late_total")
        rounds = metrics.counter("rounds_total")
        report = None
        for step in range(6):
            rounds.inc(2)
            late.inc()  # 1 late per 2 rounds -> ratio 0.5
            report = monitor.observe(step)
        (row,) = report.rules
        assert row["value"] == pytest.approx(0.5)
        assert report.verdict == VERDICT_DEGRADED

    def test_counter_age_since_last_increase(self):
        rule = HealthRule("ckpt", "counter_age", "ckpt_total",
                          degraded=3.0, failing=6.0, window=20)
        metrics, monitor = self._monitor(rule)
        counter = metrics.counter("ckpt_total")
        counter.inc()
        report = None
        for step in range(6):
            report = monitor.observe(step)  # never increases again
        (row,) = report.rules
        # Last increase seen at the first sample (step 0): age 5.
        assert row["value"] == pytest.approx(5.0)
        assert report.verdict == VERDICT_DEGRADED

    def test_counter_age_without_any_increase_is_ok(self):
        rule = HealthRule("ckpt", "counter_age", "ckpt_total",
                          degraded=1.0, failing=2.0)
        metrics, monitor = self._monitor(rule)
        metrics.counter("ckpt_total")  # registered, never incremented
        report = None
        for step in range(5):
            report = monitor.observe(step)
        assert report.verdict == VERDICT_OK

    def test_unregistered_family_is_ok(self):
        rule = HealthRule("ghost", "gauge_value", "nope", degraded=0.0,
                          failing=0.0)
        _, monitor = self._monitor(rule)
        report = monitor.observe(0)
        assert report.verdict == VERDICT_OK  # no data must not page anyone


class TestMonitor:
    def test_overall_verdict_is_worst_rule(self):
        metrics = MetricsRegistry()
        monitor = HealthMonitor(metrics, rules=[
            HealthRule("a", "gauge_value", "ga", degraded=1, failing=2),
            HealthRule("b", "gauge_value", "gb", degraded=1, failing=2),
        ])
        metrics.gauge("ga").set(0.0)
        metrics.gauge("gb").set(5.0)
        report = monitor.observe(0)
        assert report.verdict == VERDICT_FAILING
        assert not report.ready
        assert report.live

    def test_status_gauge_exported_per_rule_and_overall(self):
        metrics = MetricsRegistry()
        monitor = HealthMonitor(metrics, rules=[
            HealthRule("a", "gauge_value", "ga", degraded=1, failing=2),
        ])
        metrics.gauge("ga").set(1.5)
        monitor.observe(0)
        status = metrics.get("repro_health_status")
        assert status.value(rule="a") == 1.0
        assert status.value(rule="overall") == 1.0

    def test_transitions_recorded_once_per_change(self):
        metrics = MetricsRegistry()
        monitor = HealthMonitor(metrics, rules=[
            HealthRule("a", "gauge_value", "ga", degraded=1, failing=2),
        ])
        gauge = metrics.gauge("ga")
        for step, value in enumerate([0.0, 0.0, 1.5, 1.5, 0.0]):
            gauge.set(value)
            monitor.observe(step)
        assert [(t["from"], t["to"]) for t in monitor.transitions] == [
            (None, "ok"), ("ok", "degraded"), ("degraded", "ok"),
        ]

    def test_check_every_skips_intermediate_samples(self):
        metrics = MetricsRegistry()
        monitor = HealthMonitor(metrics, rules=[
            HealthRule("a", "gauge_value", "ga", degraded=1, failing=2),
        ], check_every=3)
        metrics.gauge("ga").set(0.0)
        reports = [monitor.observe(step) for step in range(6)]
        assert [r is not None for r in reports] == [
            False, False, True, False, False, True,
        ]

    def test_duplicate_rule_names_rejected(self):
        rule = HealthRule("a", "gauge_value", "g", degraded=1, failing=2)
        with pytest.raises(ValueError, match="duplicate"):
            HealthMonitor(MetricsRegistry(), rules=[rule, rule])

    def test_json_artifact_round_trips(self, tmp_path):
        metrics = MetricsRegistry()
        monitor = HealthMonitor(metrics, rules=default_rules())
        monitor.observe(0)
        path = tmp_path / "health.json"
        monitor.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == monitor.to_json()
        assert loaded["report"]["verdict"] == VERDICT_OK
        assert {r["name"] for r in loaded["rules"]} == {
            "step_latency_p95", "sync_failure_rate",
            "late_admit_ratio", "lost_round_rate",
        }


class TestDefaultRules:
    def test_checkpoint_rule_only_with_checkpointing(self):
        names = {r.name for r in default_rules()}
        assert "checkpoint_age" not in names
        names = {r.name for r in default_rules(checkpoint_every=5)}
        assert "checkpoint_age" in names
        rule = next(
            r for r in default_rules(checkpoint_every=5)
            if r.name == "checkpoint_age"
        )
        assert rule.degraded == 15.0
        assert rule.failing == 50.0


class TestTrainerIntegration:
    def test_healthy_run_reports_ok_and_emits_event(self, tmp_path):
        from repro.obs import EventLog, read_events

        log_path = tmp_path / "events.jsonl"
        obs = Observability.enabled(events=EventLog(log_path))
        trainer = build_obs_trainer(MACHSampler(), steps=10, obs=obs)
        trainer.run(num_steps=10)
        trainer.close()
        report = obs.health.last_report
        assert report is not None
        assert report.verdict == VERDICT_OK
        assert report.step == 10  # labeled by steps_run (1-based count)
        # The verdict transition (None -> ok) surfaced as a JSONL event.
        obs.close()
        health_events = [
            e for e in read_events(log_path) if e.get("type") == "health"
        ]
        assert len(health_events) == 1
        assert health_events[0]["verdict"] == VERDICT_OK

    def test_monitor_is_pure_observer(self):
        import numpy as np

        baseline = build_obs_trainer(MACHSampler(), steps=10)
        result_a = baseline.run(num_steps=10)
        baseline.close()
        obs = Observability.enabled()
        observed = build_obs_trainer(MACHSampler(), steps=10, obs=obs)
        result_b = observed.run(num_steps=10)
        observed.close()
        obs.close()
        assert result_a.history.accuracy == result_b.history.accuracy
        assert np.array_equal(
            result_a.participation_counts, result_b.participation_counts
        )
