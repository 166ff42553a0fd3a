"""What observation costs, and how much it records, on one fixed run.

The workload is the runner's ``blobs-bench`` preset at 48 devices, 3
edges and 12 steps on a Markov trace, seed 0, sampled by MACH.  Its
sink volumes are functions of the workload alone, so they are pinned
exactly.  The sinks without the span tracer, and the profiler alone,
observe on the executors' unchanged fused path, so each must stay
within a bounded wall-clock overhead of the unobserved run.  The
tracer's per-device timings take the executors off that path; its cost
is a mode change and is not bounded here.
"""

import statistics
import time

import numpy as np

from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single
from repro.hfl.telemetry import TelemetryRecorder
from repro.obs import (
    EventLog,
    HealthMonitor,
    MACHAuditTrail,
    MetricsRegistry,
    Observability,
    Profiler,
    ResourceAccountant,
    read_events,
    replay_telemetry,
)

WORKLOAD = PRESETS["blobs-bench"].with_overrides(
    num_devices=48, num_edges=3, num_steps=12, trace_kind="markov", seed=0,
)
SAMPLER = "mach"

#: Largest relative wall-clock overhead of the sinks without the tracer,
#: and of the profiler, over the unobserved run.  Lenient, because shared
#: hosts are noisy.
MAX_OVERHEAD = 0.5

#: Interleaved (obs off, sinks, profiler) triples timed.  One run takes
#: about 0.07 s, so the overhead is the median of the per-triple
#: ratios: a best-of-three per path let one slow run decide the verdict.
TRIPLES = 9


def assert_identical(a, b):
    assert a.history.steps == b.history.steps
    assert a.history.accuracy == b.history.accuracy
    assert a.history.loss == b.history.loss
    np.testing.assert_array_equal(a.participation_counts, b.participation_counts)


def observed_run(obs, config=WORKLOAD, telemetry=None):
    result = run_single(config, SAMPLER, telemetry=telemetry, obs=obs)
    obs.close()
    return result


def sinks_sans_tracer(log_path):
    events = EventLog(log_path)
    metrics = MetricsRegistry()
    return Observability(
        events=events,
        metrics=metrics,
        audit=MACHAuditTrail(event_log=events),
        resources=ResourceAccountant(metrics),
        health=HealthMonitor(metrics),
    )


def timed(run):
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def test_sink_volumes_are_pinned(tmp_path):
    obs = Observability.enabled(events=EventLog(tmp_path / "events.jsonl"))
    observed = observed_run(obs, telemetry=TelemetryRecorder())
    assert_identical(run_single(WORKLOAD, SAMPLER), observed)
    volume = (
        obs.events.num_events,
        len(obs.tracer.spans),
        len(obs.audit.decisions),
        len(obs.metrics.families()),
    )
    assert volume == (78, 396, 36, 28)


def test_process_run_log_replays(tmp_path):
    """The audit trail and the telemetry stream of a process-pool run
    rebuild exactly from what the run logged."""
    path = tmp_path / "events.jsonl"
    obs = Observability.enabled(events=EventLog(path))
    observed_run(
        obs,
        WORKLOAD.with_overrides(executor="process", num_workers=2),
        TelemetryRecorder(),
    )
    assert obs.audit.verify_replay(WORKLOAD.seed) is True
    rebuilt = replay_telemetry(read_events(path))
    assert rebuilt.records
    live = run_single(WORKLOAD, SAMPLER)
    assert rebuilt.participation_counts() == {
        device: int(count)
        for device, count in enumerate(live.participation_counts)
        if count > 0
    }


def test_observation_overhead_is_bounded(tmp_path):
    log_path = tmp_path / "events.jsonl"
    run_single(WORKLOAD, SAMPLER)  # warm caches before timing
    sinks_ratios, profiler_ratios = [], []
    for _ in range(TRIPLES):
        base_s, baseline = timed(lambda: run_single(WORKLOAD, SAMPLER))
        sinks_s, sinks = timed(
            lambda: observed_run(
                sinks_sans_tracer(log_path), telemetry=TelemetryRecorder()
            )
        )
        profiler_s, profiled = timed(
            lambda: observed_run(Observability(profiler=Profiler()))
        )
        sinks_ratios.append(sinks_s / base_s)
        profiler_ratios.append(profiler_s / base_s)
    assert_identical(baseline, sinks)
    assert_identical(baseline, profiled)
    for label, ratios in (
        ("sinks", sinks_ratios), ("profiler", profiler_ratios)
    ):
        overhead = statistics.median(ratios) - 1.0
        assert overhead <= MAX_OVERHEAD, (
            f"{label} overhead {overhead:+.1%} > {MAX_OVERHEAD:.0%}; "
            f"per-triple ratios {[round(r, 3) for r in ratios]}"
        )
