"""repro.obs — observability for the HFL engine, on one instrumentation path.

The trainer reports every engine event exactly once, to its
:class:`Observability` handle (an empty one when no sinks are
attached).  The handle is the single place that decides which sink
hears which record: a sink hears a record iff it implements the
record's hook (``_HOOKS`` below lists them with their subscribers), so
the trainer never names a sink.  The sinks:

- **telemetry** (:class:`~repro.hfl.telemetry.TelemetryRecorder`,
  attached through the trainer's ``telemetry=`` argument): the
  checkpointed per-round record of the run;
- **event log** (:mod:`repro.obs.events`): append-only JSONL with a run
  manifest header and typed events, replayable into a lossless
  ``TelemetryRecorder``;
- **metrics** (:mod:`repro.obs.metrics`): counters, gauges and
  fixed-bucket histograms (:class:`~repro.obs.metrics.EngineMetrics`
  keeps the engine families), exportable as JSON and Prometheus text;
- **span tracer** (:mod:`repro.obs.tracing`): cloud-step → phase →
  edge-round → device-update spans with per-worker attribution;
- **profiler** (:mod:`repro.obs.profiler`): phase → subsystem → site
  wall/CPU attribution, tracemalloc sampling, flamegraph export;
- **resources** (:mod:`repro.obs.resources`): RSS, model-payload bytes
  per exchange and sync backoff, as ordinary metrics;
- **health** (:mod:`repro.obs.health`): rolling-window SLO rules over
  the metrics, folded into ok/degraded/failing verdicts;
- **MACH audit trail** (:mod:`repro.obs.audit`): per-(step, edge) UCB
  terms, probabilities and indicators, seed-replayable offline.

Each phase (plan / execute / finish / sync / eval / checkpoint) is
timed by one clock pair, whose duration feeds telemetry, the profiler,
the tracer span and ``repro_phase_seconds`` alike.  Records that cost
work to build (a round's participant list, the sampler's UCB terms) are
built only when some sink consumes them.

Determinism contract: every sink observes, none participates.  No obs
code path reads or advances an engine RNG stream, mutates model or
sampler state, or contributes to any ``state_dict`` other than the
telemetry recorder's own — so an obs-enabled run is bit-identical to an
obs-disabled one on every executor backend, and kill/resume replay is
unaffected.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Optional

from repro.obs.audit import MACHAuditTrail, SamplingDecision
from repro.obs.events import (
    EngineEventWriter,
    EventLog,
    build_manifest,
    read_events,
    replay_telemetry,
)
from repro.obs.metrics import (
    Counter,
    EngineMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.health import HealthMonitor, HealthReport, HealthRule, default_rules
from repro.obs.profiler import Profiler
from repro.obs.resources import ResourceAccountant
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "Observability",
    "EventLog",
    "build_manifest",
    "read_events",
    "replay_telemetry",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MACHAuditTrail",
    "SamplingDecision",
    "Profiler",
    "ResourceAccountant",
    "HealthMonitor",
    "HealthReport",
    "HealthRule",
    "default_rules",
]


#: Every record hook and the sinks implementing it.  Hooks the
#: telemetry recorder keeps take its ``record_*`` signatures.
_HOOKS = (
    "push_phase",              # profiler
    "pop_phase",               # profiler
    "record_phase",            # telemetry, metrics, profiler
    "record_sampling",         # audit
    "record_round",            # telemetry, metrics, events
    "record_faults",           # telemetry, metrics, events
    "record_device_round",     # resources
    "observe_worker_timings",  # profiler, tracer
    "record_sync_attempt",     # telemetry, metrics, resources, events
    "record_sync",             # metrics, resources
    "record_churn",            # telemetry, metrics, events
    "record_late_admit",       # telemetry, metrics, events
    "record_late_drop",        # telemetry, metrics, events
    "record_stale_admit",      # resources
    "record_stale_buffer",     # metrics
    "record_eval",             # metrics, events
    "record_checkpoint",       # metrics, events
    "begin_step",              # profiler
    "end_step",                # metrics, profiler, resources, health, events
    "record_run_start",        # events
    "record_run_end",          # events
)


class _Phase:
    """One engine phase, timed by one clock pair."""

    __slots__ = ("_obs", "_name", "_attrs", "_start")

    def __init__(self, obs: "Observability", name: str, attrs: dict) -> None:
        self._obs = obs
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Phase":
        self._obs._emit("push_phase", self._name)
        self._start = time.perf_counter()
        self._obs.tracer.begin(self._name, self._start, **self._attrs)
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        end = time.perf_counter()
        self._obs.tracer.end(end)
        self._obs._emit("pop_phase")
        if exc_type is None:
            self._obs._emit("record_phase", self._name, end - self._start)


#: The phase scope of a handle that no sink times phases for.
_NULL_PHASE = nullcontext()


def _forward(hook: str):
    """A record method that needs no building: deliver its arguments."""

    def record(self, *args, **fields) -> None:
        self._emit(hook, *args, **fields)

    return record


class Observability:
    """The one receiver of every engine record; see the module docstring.

    The tracer is never ``None``: when tracing is off it is the shared
    :data:`NULL_TRACER`.  Construction shortcuts::

        obs = Observability.enabled()                  # all in-memory sinks
        obs = Observability(events=EventLog("run.jsonl"),
                            tracer=SpanTracer())       # pick and choose
    """

    def __init__(
        self,
        events: Optional[EventLog] = None,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        audit: Optional[MACHAuditTrail] = None,
        profiler: Optional[Profiler] = None,
        resources: Optional[ResourceAccountant] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.events = events
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.audit = audit
        self.profiler = profiler
        self.resources = resources
        self.health = health
        if resources is not None and resources.metrics is not metrics:
            raise ValueError(
                "resources accountant must share the bundle's metrics "
                "registry so its families reach the exporters"
            )
        if health is not None and health.metrics is not metrics:
            raise ValueError(
                "health monitor must share the bundle's metrics registry"
            )
        #: The bound run's telemetry recorder (see :meth:`bind`).
        self.telemetry = None
        self._engine_metrics = (
            EngineMetrics(metrics) if metrics is not None else None
        )
        self._event_writer = (
            EngineEventWriter(events, health) if events is not None else None
        )
        self._executor = None
        self._model_bytes = 0
        self._route()

    @classmethod
    def enabled(
        cls,
        events: Optional[EventLog] = None,
        profiler: Optional[Profiler] = None,
        health_rules: Optional[list] = None,
    ) -> "Observability":
        """Every sink on: tracer + metrics + audit + resources + health
        (+ optional event log).

        The audit trail mirrors into the event log when one is given, so
        the on-disk ``sampling`` events always match the in-memory trail.
        The profiler stays opt-in even here — continuous profiling is a
        deliberate choice, not a side effect of turning on obs.
        """
        metrics = MetricsRegistry()
        return cls(
            events=events,
            tracer=SpanTracer(),
            metrics=metrics,
            audit=MACHAuditTrail(event_log=events),
            profiler=profiler,
            resources=ResourceAccountant(metrics),
            health=HealthMonitor(metrics, rules=health_rules),
        )

    def _route(self) -> None:
        # Delivery order within a hook: metrics before health samples
        # the registry, health before the event log reports its verdict.
        subscribers = [
            sink
            for sink in (
                self.telemetry,
                self._engine_metrics,
                self.profiler,
                self.resources,
                self.health,
                self._event_writer,
                self.audit,
                self.tracer if self.tracer.enabled else None,
            )
            if sink is not None
        ]
        self._hooks = {
            hook: tuple(getattr(s, hook) for s in subscribers if hasattr(s, hook))
            for hook in _HOOKS
        }
        self._times_phases = self.tracer.enabled or bool(
            self._hooks["record_phase"] or self._hooks["push_phase"]
        )

    def _emit(self, hook: str, *args, **fields) -> None:
        for deliver in self._hooks[hook]:
            deliver(*args, **fields)

    def bind(self, telemetry, executor, topology: str, aggregation: str,
             model_bytes: int) -> None:
        """Attach the handle to one trainer's run.

        ``telemetry`` (a recorder or ``None``) joins the subscribers; the
        executor collects the worker timings the sinks need (per item
        for tracer spans, per step chunk for the profiler); sync and payload
        metrics are labeled by the run's topology/aggregation pair.
        """
        self.telemetry = telemetry
        self._executor = executor
        self._model_bytes = int(model_bytes)
        for sink in (self._engine_metrics, self.resources):
            if sink is not None:
                sink.topology, sink.aggregation = topology, aggregation
        if self.tracer.enabled:
            executor.enable_worker_timings()
        elif self.profiler is not None:
            executor.enable_worker_timings(granularity="round")
        if self.profiler is not None:
            # The process-global site hook (repro.prof) lets the
            # mobility/aggregation hot paths self-report.
            self.profiler.activate()
        self._route()

    def unbind(self) -> None:
        """End the bound run: uninstall the profiler's process-global hook."""
        if self.profiler is not None:
            self.profiler.deactivate()

    def close(self) -> None:
        """Unbind, then flush and close the event log (idempotent)."""
        self.unbind()
        if self.events is not None:
            self.events.close()

    # -- engine records (called by the trainer, once per event) --------------

    def phase(self, name: str, **attrs):
        """Scope one engine phase; ``attrs`` label its tracer span."""
        return _Phase(self, name, attrs) if self._times_phases else _NULL_PHASE

    def begin_step(self, t: int, start: float) -> None:
        self.tracer.begin("cloud_step", start, t=t)
        self._emit("begin_step", t)

    def end_step(self, t: int, start: float, end: float) -> None:
        self.tracer.end(end)
        self._emit("end_step", t, end - start)

    def sampling(self, t, edge, members, probabilities, indicators, sampler) -> None:
        """A planned round; the sampler's UCB terms are read only for a listener."""
        if self._hooks["record_sampling"]:
            components = sampler.audit_components(members)
            self._emit(
                "record_sampling", t, edge, members, probabilities, indicators,
                components,
            )

    def round(self, t, edge, members, probabilities, sampled, results,
              failures, num_sampled, num_parked) -> None:
        """A finished round: survivors (``results``, a subset of the
        ``sampled`` devices), lost uploads (``failures``: device → fault
        kind) and device↔edge traffic."""
        if self._hooks["record_round"]:
            participants = [m for m in sampled.tolist() if m in results]
            self._emit(
                "record_round", t, edge, members, probabilities, participants,
                [results[m].mean_grad_sq_norm for m in participants],
                [results[m].mean_loss for m in participants],
            )
        if failures:
            self._emit("record_faults", t, edge, failures, num_sampled)
        if num_sampled:
            self._emit(
                "record_device_round", num_sampled, num_sampled - num_parked,
                self._model_bytes,
            )

    def worker_timings(self) -> None:
        """Drain the executor's worker timings, if any sink wants them."""
        if self._hooks["observe_worker_timings"]:
            timings = self._executor.drain_worker_timings()
            if timings:
                self._emit("observe_worker_timings", timings)

    sync_attempt = _forward("record_sync_attempt")
    late_drop = _forward("record_late_drop")
    stale_buffer = _forward("record_stale_buffer")
    evaluated = _forward("record_eval")
    checkpoint = _forward("record_checkpoint")
    run_start = _forward("record_run_start")
    run_end = _forward("record_run_end")

    def sync(self, uploads: int, broadcasts: int) -> None:
        self._emit("record_sync", uploads, broadcasts, self._model_bytes)

    def churn(self, t, joined, left, num_active) -> None:
        if joined or left:
            self._emit("record_churn", t, joined, left, num_active)

    def late_admit(self, t, edge, device, born_step, age, scale) -> None:
        self._emit("record_late_admit", t, edge, device, born_step, age, scale)
        self._emit("record_stale_admit", 1, self._model_bytes)
