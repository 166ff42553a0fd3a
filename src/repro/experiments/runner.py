"""Scenario construction and multi-sampler comparison runs.

Also usable as a CLI, organized into subcommands::

    PYTHONPATH=src python -m repro.experiments.runner run \
        --preset blobs-bench --sampler mach --executor process --num-workers 4
    PYTHONPATH=src python -m repro.experiments.runner serve --port 8765
    PYTHONPATH=src python -m repro.experiments.runner resume checkpoint.json

The ``run``/``resume`` scenario flags are derived from the
:class:`ScenarioConfig` field metadata.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.synthetic import TASK_SPECS, make_federated_task
from repro.experiments.config import (
    CLI_FIELDS,
    FIELD_TYPES,
    PRESETS,
    SAMPLER_ABBREVIATIONS,
    SAMPLER_NAMES,
    ScenarioConfig,
    hfl_config_for,
    make_sampler,
)
from repro.faults import (
    RESUMABLE_FIELDS,
    CheckpointMismatchError,
    TrainerCheckpoint,
    check_identity,
)
from repro.hfl.trainer import HFLTrainer, TrainingResult
from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.streaming import (
    DenseChunkProvider,
    MarkovChunkProvider,
    StaticChunkProvider,
    StreamingTrace,
)
from repro.mobility.telecom import TelecomTraceGenerator
from repro.mobility.trace import MobilityTrace, static_trace
from repro.nn.architectures import build_model
from repro.nn.model import Model
from repro.utils.rng import SeedSequenceFactory


def build_trace(config: ScenarioConfig, seed: int):
    """Build the scenario's mobility trace (telecom / markov / static).

    With ``trace_backend="streaming"`` the trace is served from bounded
    chunks (see :mod:`repro.mobility.streaming`): markov walks are
    *generated* chunk by chunk (so the dense grid never exists), static
    rows are tiled virtually, and telecom traces — whose generator is
    inherently dense — are wrapped behind a chunk provider so downstream
    memory still stays bounded.  Note the streaming markov walk draws
    from per-chunk seed streams, so its trajectory differs from the
    dense backend's (same dynamics, different stream layout).
    """
    seeds = SeedSequenceFactory(seed)
    streaming = config.trace_backend == "streaming"
    if config.trace_kind == "telecom":
        generator = TelecomTraceGenerator(
            num_devices=config.num_devices,
            num_stations=max(10 * config.num_edges, 3 * config.num_devices),
            rng=seeds.generator("telecom"),
        )
        trace, _edge_map = generator.generate_trace(
            num_steps=config.num_steps, num_edges=config.num_edges
        )
        if streaming:
            return StreamingTrace(
                DenseChunkProvider(trace.assignments, trace.num_edges),
                chunk_steps=config.trace_chunk_steps,
            )
        return trace
    if config.trace_kind == "markov":
        model = MarkovMobilityModel.stay_or_jump(
            config.num_edges,
            stay_probability=config.stay_probability,
            rng=seeds.generator("markov"),
        )
        if streaming:
            return StreamingTrace(
                MarkovChunkProvider(
                    model.transition,
                    config.num_steps,
                    config.num_devices,
                    seed=seeds.child("markov-stream").master_seed,
                    chunk_steps=config.trace_chunk_steps,
                )
            )
        return model.sample_trace(
            config.num_steps, config.num_devices, rng=seeds.generator("markov-trace")
        )
    if streaming:
        assignment = seeds.generator("static").integers(
            0, config.num_edges, size=config.num_devices
        )
        return StreamingTrace(
            StaticChunkProvider(
                assignment, config.num_steps, config.num_edges
            ),
            chunk_steps=config.trace_chunk_steps,
        )
    return static_trace(
        config.num_steps,
        config.num_devices,
        config.num_edges,
        rng=seeds.generator("static"),
    )


def build_scenario(
    config: ScenarioConfig, seed: Optional[int] = None
) -> Tuple[List[Dataset], Dataset, MobilityTrace, Callable[[np.random.Generator], Model]]:
    """Materialize a scenario: device data, test set, trace, model factory."""
    seed = config.seed if seed is None else seed
    seeds = SeedSequenceFactory(seed)
    devices, test = make_federated_task(
        config.task,
        num_devices=config.num_devices,
        samples_per_device=config.samples_per_device,
        test_samples=config.test_samples,
        image_size=config.image_size,
        alpha=config.dirichlet_alpha,
        imbalance=config.imbalance,
        separation=config.separation,
        noise=config.noise,
        rng=seeds.generator("data"),
    )
    trace = build_trace(config, seed)
    feature_shape = devices[0].feature_shape
    task = config.task if config.task != "blobs" else "mlp"
    scale = config.model_scale

    def model_factory(rng: np.random.Generator) -> Model:
        return build_model(task, feature_shape, scale=scale, rng=rng)

    return devices, test, trace, model_factory


def build_trainer(
    config: ScenarioConfig, sampler: str, telemetry=None, obs=None
) -> HFLTrainer:
    """The trainer for one run of ``sampler`` on a freshly built ``config``.

    :func:`run_single` and the coordinator service both build their
    trainers here, so both name their checkpoints by ``config``.
    """
    devices, test, trace, model_factory = build_scenario(config, config.seed)
    return HFLTrainer(
        model_factory=model_factory,
        device_datasets=devices,
        trace=trace,
        sampler=make_sampler(sampler, config),
        config=hfl_config_for(config, config.seed),
        test_dataset=test,
        telemetry=telemetry,
        obs=obs,
        scenario=config,
    )


def run_single(
    config: ScenarioConfig,
    sampler_name: str,
    seed: Optional[int] = None,
    stop_at_target: bool = False,
    telemetry=None,
    resume_from=None,
    obs=None,
) -> TrainingResult:
    """Run one sampler on one freshly built scenario instance.

    ``seed`` replaces the scenario's; ``resume_from`` (a checkpoint path
    or :class:`~repro.faults.TrainerCheckpoint`) continues a killed run;
    ``obs`` attaches a :class:`repro.obs.Observability` handle.
    """
    if seed is not None:
        config = config.with_overrides(seed=seed)
    with build_trainer(config, sampler_name, telemetry, obs) as trainer:
        return trainer.run(
            config.num_steps,
            target_accuracy=config.target_accuracy,
            stop_at_target=stop_at_target,
            resume_from=resume_from,
        )


@dataclass
class ComparisonReport:
    """Aggregated multi-sampler, multi-repeat comparison on one scenario."""

    config: ScenarioConfig
    results: Dict[str, List[TrainingResult]] = field(default_factory=dict)

    def mean_accuracy_curve(self, sampler: str) -> Tuple[List[int], List[float]]:
        """Repeat-averaged accuracy series (the paper smooths over 3 runs)."""
        runs = self.results[sampler]
        steps = runs[0].history.steps
        matrix = np.array([run.history.accuracy[: len(steps)] for run in runs])
        return list(steps), list(matrix.mean(axis=0))

    def mean_time_to_accuracy(
        self, sampler: str, target: Optional[float] = None
    ) -> Optional[float]:
        """Repeat-averaged steps-to-target; None when any repeat misses it."""
        target = self.config.target_accuracy if target is None else target
        times = [run.time_to_accuracy(target) for run in self.results[sampler]]
        if any(t is None for t in times):
            return None
        return float(np.mean(times))

    def best_baseline(
        self, target: Optional[float] = None, exclude: Sequence[str] = ("mach", "mach_p")
    ) -> Tuple[Optional[str], Optional[float]]:
        """The fastest non-MACH strategy (the paper's underlined column)."""
        best_name, best_time = None, None
        for name in self.results:
            if name in exclude:
                continue
            t = self.mean_time_to_accuracy(name, target)
            if t is not None and (best_time is None or t < best_time):
                best_name, best_time = name, t
        return best_name, best_time

    def mach_savings_percent(self, target: Optional[float] = None) -> Optional[float]:
        """Paper headline: % of time steps MACH saves vs the best baseline."""
        mach_time = self.mean_time_to_accuracy("mach", target)
        _name, base_time = self.best_baseline(target)
        if mach_time is None or base_time is None or base_time == 0:
            return None
        return 100.0 * (base_time - mach_time) / base_time

    def render(self, target: Optional[float] = None) -> str:
        """Human-readable summary table."""
        target = self.config.target_accuracy if target is None else target
        lines = [
            f"scenario: task={self.config.task} edges={self.config.num_edges} "
            f"devices={self.config.num_devices} "
            f"participation={self.config.participation_fraction:.0%} "
            f"I={self.config.local_epochs} Tg={self.config.sync_interval} "
            f"target={target:.2f}",
            f"{'sampler':<16}{'steps-to-target':>16}{'final acc':>12}{'best acc':>10}",
        ]
        for name, runs in self.results.items():
            t = self.mean_time_to_accuracy(name, target)
            final = np.mean([run.history.final_accuracy() for run in runs])
            best = np.mean([run.history.best_accuracy() for run in runs])
            label = SAMPLER_ABBREVIATIONS.get(name, name)
            t_str = f"{t:.0f}" if t is not None else "not reached"
            lines.append(f"{label:<16}{t_str:>16}{final:>12.3f}{best:>10.3f}")
        savings = self.mach_savings_percent(target)
        if savings is not None:
            base_name, _ = self.best_baseline(target)
            lines.append(
                f"MACH saves {savings:.2f}% vs best baseline "
                f"({SAMPLER_ABBREVIATIONS.get(base_name, base_name)})"
            )
        return "\n".join(lines)


def run_comparison(
    config: ScenarioConfig,
    sampler_names: Sequence[str] = SAMPLER_NAMES,
    repeats: int = 1,
    stop_at_target: bool = False,
) -> ComparisonReport:
    """Run every requested sampler ``repeats`` times on the scenario.

    Each repeat uses seed ``config.seed + r`` for *all* samplers, so the
    comparison within a repeat shares data, trace and initial model —
    the paper's "each set of experiments three times and take the
    average" protocol with paired randomness.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    report = ComparisonReport(config=config)
    for name in sampler_names:
        runs = [
            run_single(config, name, seed=config.seed + r, stop_at_target=stop_at_target)
            for r in range(repeats)
        ]
        report.results[name] = runs
    return report


# ---------------------------------------------------------------------------
# CLI


#: Help-output sections of the scenario flags (their ``group`` metadata).
_FLAG_GROUPS = {
    "topology": None,
    "scale": "city-scale population engine (see DESIGN.md §14)",
}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """One flag per :data:`CLI_FIELDS` entry, stored under the field name."""
    groups = {None: parser}
    for title, description in _FLAG_GROUPS.items():
        groups[title] = parser.add_argument_group(title, description)
    for f in CLI_FIELDS:
        spec = dict(f.metadata)
        kind, _optional = FIELD_TYPES[f.name]
        groups[spec.pop("group", None)].add_argument(
            spec.pop("flag"),
            dest=f.name,
            type=None if kind is str else kind,
            default=spec.pop("cli_default", None),
            **spec,
        )


def _scenario_overrides(args) -> Dict[str, object]:
    """The scenario flags given on the command line, by field name."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in CLI_FIELDS
        if getattr(args, f.name) is not None
    }
    if args.checkpoint_every is not None and args.checkpoint_path is None:
        overrides["checkpoint_path"] = "checkpoint.json"
    return overrides


#: The option behind each :class:`~repro.faults.CheckpointMismatchError`
#: field, for a one-line resume error; ``--preset`` for any other field.
_MISMATCH_FLAGS: Dict[str, str] = {
    **{f.name: f.metadata["flag"] for f in CLI_FIELDS},
    "sampler": "--sampler",
}


def _add_run_arguments(parser: argparse.ArgumentParser, resume: bool = False) -> None:
    """The run flags; on ``resume`` the preset and the sampler default to
    the checkpoint's."""
    parser.add_argument(
        "--preset", default=None if resume else "blobs-bench",
        choices=sorted(PRESETS),
        help="scenario preset (default: "
        + ("the checkpoint's scenario)" if resume else "blobs-bench)"),
    )
    parser.add_argument(
        "--sampler", default=None if resume else "mach", choices=SAMPLER_NAMES,
        help="device-sampling strategy (default: "
        + ("the checkpoint's)" if resume else "mach)"),
    )
    _add_scenario_arguments(parser)
    parser.add_argument("--stop-at-target", action="store_true",
                        help="stop as soon as the target accuracy is reached")
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--log-jsonl", default=None, metavar="PATH",
        help="write the structured JSONL event log (manifest + typed "
             "round/fault/sync/sampling/checkpoint/eval events) to PATH; "
             "also enables the MACH decision audit trail",
    )
    obs_group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the span trace (cloud_step → edge_round → "
             "device_update hierarchy) as JSONL to PATH",
    )
    obs_group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry as JSON to PATH and as "
             "Prometheus text to PATH with a .prom suffix",
    )
    obs_group.add_argument(
        "--profile", action="store_true",
        help="enable the continuous profiler (phase → subsystem → site "
             "wall/CPU attribution); prints the top hotspots after the "
             "run",
    )
    obs_group.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the full profiler report (hotspot table, per-phase "
             "totals, recent steps, allocation samples) as JSON to PATH "
             "(implies --profile)",
    )
    obs_group.add_argument(
        "--flamegraph-out", default=None, metavar="PATH",
        help="write collapsed-stack lines (flamegraph.pl / speedscope "
             "compatible) to PATH (implies --profile)",
    )
    obs_group.add_argument(
        "--profile-alloc-every", default=None, type=int, metavar="K",
        help="sample tracemalloc allocation snapshots every K steps "
             "(implies --profile; allocation tracing has real overhead)",
    )
    obs_group.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="evaluate the rolling-window health/SLO rules each step and "
             "write the final HealthReport (verdict, rules, transitions) "
             "as JSON to PATH",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--log-level", default="info", choices=("quiet", "info", "debug"),
        help="console verbosity: quiet silences the summary prints, "
             "debug adds the phase-timing table (default: info)",
    )
    verbosity.add_argument(
        "--quiet", action="store_true",
        help="shorthand for --log-level quiet (for CI and sweep scripts)",
    )


def _profile_requested(args) -> bool:
    return bool(
        args.profile
        or args.profile_out
        or args.flamegraph_out
        or args.profile_alloc_every
    )


def _build_observability(args, config: ScenarioConfig, sampler: str):
    """Construct the CLI run's :class:`repro.obs.Observability`, or None.

    Each sink is enabled only by its own flag, so ``--trace-out`` alone
    pays no event-log or metrics cost; ``--log-jsonl`` also turns on the
    MACH audit trail, which mirrors its decisions into the log as
    ``sampling`` events; ``--health-out`` (and ``--metrics-out``) bring
    up the metrics registry with the resource accountant attached, so
    payload/RSS metrics reach the exporters.  With no observability flag
    it returns None, and the run constructs no sink at all.
    """
    if not (
        args.log_jsonl
        or args.trace_out
        or args.metrics_out
        or args.health_out
        or _profile_requested(args)
    ):
        return None
    from repro.faults import make_fault_model, resolve_fault_profile
    from repro.obs import (
        EventLog,
        HealthMonitor,
        MACHAuditTrail,
        MetricsRegistry,
        Observability,
        Profiler,
        ResourceAccountant,
        SpanTracer,
        build_manifest,
        default_rules,
    )

    events = None
    if args.log_jsonl:
        events = EventLog(args.log_jsonl)
        fault_model = make_fault_model(resolve_fault_profile(config.fault_profile))
        events.write_manifest(
            build_manifest(
                seed=config.seed,
                sampler=sampler,
                num_steps=config.num_steps,
                config=config.to_dict(),
                fault_profile=(
                    fault_model.describe() if fault_model is not None else None
                ),
                extra={"preset": args.preset, "executor": config.executor},
            )
        )
    metrics = (
        MetricsRegistry()
        if (args.metrics_out or args.health_out)
        else None
    )
    profiler = None
    if _profile_requested(args):
        profiler = Profiler(alloc_every=args.profile_alloc_every)
    health = None
    if args.health_out:
        health = HealthMonitor(
            metrics,
            rules=default_rules(checkpoint_every=config.checkpoint_every),
        )
    return Observability(
        events=events,
        tracer=SpanTracer() if args.trace_out else None,
        metrics=metrics,
        audit=MACHAuditTrail(event_log=events) if events is not None else None,
        profiler=profiler,
        resources=(
            ResourceAccountant(metrics) if metrics is not None else None
        ),
        health=health,
    )


def _write_obs_outputs(args, obs, echo) -> None:
    """Flush file-backed sinks and write the trace/metrics snapshots."""
    if obs is None:
        return
    from pathlib import Path

    if obs.events is not None:
        echo(f"event log: {args.log_jsonl} ({obs.events.num_events} events)")
    if args.trace_out and obs.tracer.enabled:
        obs.tracer.write_jsonl(args.trace_out)
        echo(f"trace: {args.trace_out} ({len(obs.tracer.to_list())} spans)")
    if args.metrics_out and obs.metrics is not None:
        obs.metrics.write_json(args.metrics_out)
        prom_path = Path(args.metrics_out).with_suffix(".prom")
        obs.metrics.write_prometheus(prom_path)
        echo(f"metrics: {args.metrics_out} + {prom_path}")
    if obs.profiler is not None:
        if args.profile_out:
            obs.profiler.write_json(args.profile_out)
            echo(f"profile: {args.profile_out}")
        if args.flamegraph_out:
            obs.profiler.write_collapsed(args.flamegraph_out)
            echo(f"flamegraph: {args.flamegraph_out}")
    if args.health_out and obs.health is not None:
        obs.health.write_json(args.health_out)
        echo(f"health: {args.health_out}")
    obs.close()


def _scenario_error(error: ValueError, task: Optional[str] = None) -> int:
    """Report a scenario the engine rejects as one stderr line; exit 2.

    A :class:`~repro.faults.CheckpointMismatchError` also names the flag
    that contradicts the checkpoint.  No flag sets the data: a ``data``
    mismatch of an image ``task`` names ``PYTHONHASHSEED``, which the
    synthetic image data depends on.
    """
    hint = ""
    if isinstance(error, CheckpointMismatchError) and error.field == "data":
        hint = "; this scenario now builds other data"
        if task in TASK_SPECS:
            hint += (
                ": image data depends on PYTHONHASHSEED, so resume under "
                "the one that wrote the checkpoint"
            )
    elif isinstance(error, CheckpointMismatchError):
        hint = f"; check {_MISMATCH_FLAGS.get(error.field, '--preset')}"
    print(f"{_PROG}: error: {error}{hint}", file=sys.stderr)
    return 2


def _run_command(args) -> int:
    """The ``run`` subcommand: the preset with the flags given."""
    try:
        config = PRESETS[args.preset].with_overrides(**_scenario_overrides(args))
    except ValueError as error:
        return _scenario_error(error)
    return _execute(args, config, args.sampler)


def _resume_command(args) -> int:
    """The ``resume`` subcommand: the checkpoint's own scenario and
    sampler.  A flag may restate a recorded value or set a resumable
    field; ``--preset`` sets the fields no flag sets."""
    try:
        # Crash-safe resume: a truncated or checksum-corrupted primary
        # checkpoint falls back to the rotated .prev copy that save()
        # kept from the previous write.
        checkpoint, used = TrainerCheckpoint.load_with_fallback(args.checkpoint)
        identity = checkpoint.identity
        given = _scenario_overrides(args)
        sampler = args.sampler or identity.get("sampler")
        # Checked before the scenario is built, not left to the restore:
        # the record holds the resolved aggregation strategy, so a changed
        # --topology would first fail as an invalid topology/aggregation
        # pair, without naming the flag.
        claimed = {k: v for k, v in given.items() if k not in RESUMABLE_FIELDS}
        check_identity(identity, {**identity, **claimed, "sampler": sampler})
        recorded = {k: v for k, v in identity.items() if k in FIELD_TYPES}
        base = ScenarioConfig()
        if args.preset is not None:
            base = PRESETS[args.preset]
            recorded = {
                f.name: recorded[f.name] for f in CLI_FIELDS if f.name in recorded
            }
        config = base.with_overrides(**{**recorded, **given})
    except (FileNotFoundError, ValueError) as error:
        return _scenario_error(error)
    warning = None
    if str(used) != str(args.checkpoint):
        warning = (
            f"warning: checkpoint at {args.checkpoint} is unusable; "
            f"resuming from the rotated copy {used} (step {checkpoint.step})"
        )
    return _execute(args, config, sampler, checkpoint, warning)


def _execute(args, config, sampler, resume_from=None, warning=None) -> int:
    """Run (or resume) one configured run and print its summary.

    The engine validates its inputs by raising :class:`ValueError`, so
    one raised while the scenario is built or run is a usage error.
    """
    level = "quiet" if args.quiet else args.log_level
    verbosity = {"quiet": 0, "info": 1, "debug": 2}[level]

    def echo(message: str, min_level: int = 1) -> None:
        if verbosity >= min_level:
            print(message)

    if warning is not None:
        echo(warning)
    obs = _build_observability(args, config, sampler)

    telemetry = None
    if (
        obs is not None
        or config.fault_profile is not None
        or config.churn_profile is not None
    ):
        from repro.hfl.telemetry import TelemetryRecorder

        telemetry = TelemetryRecorder()

    # Route through the public facade (lazy: repro.api sits above this
    # module in the import order).
    from repro.api import run_scenario

    start = time.perf_counter()
    try:
        result = run_scenario(
            config,
            sampler=sampler,
            stop_at_target=args.stop_at_target,
            telemetry=telemetry,
            resume_from=resume_from,
            obs=obs,
        )
    except ValueError as error:
        if obs is not None:
            obs.close()
        return _scenario_error(error, config.task)
    elapsed = time.perf_counter() - start

    reached = (
        f"reached target {config.target_accuracy:.2f} at step {result.reached_target_at}"
        if result.reached_target_at is not None
        else f"target {config.target_accuracy:.2f} not reached"
    )
    from repro.topology import validate_pair

    effective_aggregation = validate_pair(
        config.topology, config.aggregation_strategy
    )
    echo(
        f"preset={args.preset or 'checkpoint'} sampler={result.sampler_name} "
        f"topology={config.topology} aggregation={effective_aggregation} "
        f"executor={config.executor} workers={config.num_workers or 'auto'}"
    )
    echo(
        f"steps={result.steps_run} final_acc={result.history.final_accuracy():.3f} "
        f"best_acc={result.history.best_accuracy():.3f} "
        f"mean_participants={result.mean_participants_per_step:.2f}"
    )
    echo(f"{reached}; wall-clock {elapsed:.2f}s")
    if telemetry is not None and config.fault_profile is not None:
        summary = telemetry.fault_summary()
        faults = (
            " ".join(f"{k}={v}" for k, v in sorted(summary.items()))
            if summary
            else "none"
        )
        echo(
            f"faults: {faults}; degraded_rounds={len(telemetry.degraded_rounds)} "
            f"lost_rounds={telemetry.lost_round_count()} "
            f"stale_syncs={telemetry.stale_sync_count()} "
            f"sim_backoff={telemetry.simulated_backoff_seconds():.1f}s"
        )
    if telemetry is not None and (
        config.churn_profile is not None or config.max_staleness > 0
    ):
        age = telemetry.mean_admitted_age()
        age_str = f" mean_admitted_age={age:.2f}" if age is not None else ""
        echo(
            f"churn: joined={telemetry.devices_joined()} "
            f"left={telemetry.devices_left()}; "
            f"late_admits={telemetry.late_admit_count()} "
            f"late_drops={telemetry.late_drop_count()}{age_str}"
        )
    if telemetry is not None and verbosity >= 2:
        for phase, row in telemetry.phase_summary().items():
            echo(
                f"phase {phase:<12} {row['seconds']:.3f}s "
                f"({row['share']:.0%}, {row['calls']:.0f} calls)",
                min_level=2,
            )
    if obs is not None and obs.profiler is not None:
        for row in obs.profiler.hotspot_table()[:5]:
            echo(
                f"hotspot {row['phase']}/{row['subsystem']}/{row['site']} "
                f"{row['wall_seconds']:.3f}s ({row['share']:.0%}, "
                f"{row['calls']} calls)"
            )
    if obs is not None and obs.health is not None:
        report = obs.health.last_report
        if report is not None:
            failing = [
                f"{row['name']}={row['verdict']}"
                for row in report.rules
                if row["verdict"] != "ok"
            ]
            detail = f" ({', '.join(failing)})" if failing else ""
            echo(f"health: {report.verdict}{detail}")
    if obs is not None and obs.resources is not None:
        summary = obs.resources.summary()
        echo(
            f"resources: payload={summary['payload_mb_total']:.1f}MB "
            f"rss={summary['rss_current_mb'] or 0:.0f}MB "
            f"peak={summary['rss_peak_mb'] or 0:.0f}MB",
            min_level=2,
        )
    _write_obs_outputs(args, obs, lambda m: echo(m, min_level=2))
    return 0


# ---------------------------------------------------------------------------
# Subcommand dispatch


SUBCOMMANDS = ("run", "serve", "resume")

_PROG = "repro.experiments.runner"


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} serve",
        description="Start the always-on coordinator service over HTTP.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8765,
        help="listen port, 0 picks a free one (default: 8765)",
    )
    parser.add_argument(
        "--state-dir", default="service-state", metavar="DIR",
        help="durable run state: manifests, checkpoints, round logs "
             "(default: service-state)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="K",
        help="checkpoint live runs every K steps (default: 5)",
    )
    parser.add_argument(
        "--no-recover", action="store_true",
        help="do not resume interrupted runs found in --state-dir",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log one line per HTTP request",
    )
    return parser


def _serve_command(args) -> int:
    from repro.service import Coordinator, serve

    coordinator = Coordinator(
        state_dir=args.state_dir, checkpoint_every=args.checkpoint_every
    )
    if not args.no_recover:
        resumed = coordinator.recover()
        for run_id in resumed:
            print(f"recovered interrupted run {run_id}")
    serve(coordinator, host=args.host, port=args.port, verbose=args.verbose)
    return 0


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} run",
        description="Run one sampler on one scenario preset.",
    )
    _add_run_arguments(parser)
    return parser


def _resume_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"{_PROG} resume",
        description="Resume a single run from a saved checkpoint.",
    )
    parser.add_argument(
        "checkpoint", help="checkpoint file written by a prior run"
    )
    _add_run_arguments(parser, resume=True)
    return parser


#: ``subcommand -> (parser factory, handler)``.
_COMMANDS = {
    "run": (_run_parser, _run_command),
    "serve": (_serve_parser, _serve_command),
    "resume": (_resume_parser, _resume_command),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Run or resume one scenario, or serve the coordinator.",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    command = parser.parse_args(argv[:1]).command
    make_parser, handler = _COMMANDS[command]
    return handler(make_parser().parse_args(argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
