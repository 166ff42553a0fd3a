"""Structured event log: an append-only JSONL record of one HFL run.

The log opens with a **run manifest** (config, seed, fault profile,
code version, host) and then carries one JSON object per line for every
typed engine event:

==================  =====================================================
``manifest``        run configuration header (always the first line)
``run_start``       the trainer entered :meth:`HFLTrainer.steps`
``round``           one (step, edge) training round finished aggregating
``fault``           a round lost ≥ 1 sampled upload (device → fault kind)
``sync_attempt``    an edge→cloud attempt sequence hit ≥ 1 failure
``sampling``        MACH decision audit for one (step, edge) — see
                    :mod:`repro.obs.audit`
``device_joined``   a churn arrival enrolled (one event per device)
``device_left``     a churn departure de-enrolled (one event per device)
``late_admit``      a parked straggler upload joined a later aggregate
``late_drop``       a parked upload was discarded (device de-enrolled)
``checkpoint``      a resumable checkpoint was written
``eval``            the global model was evaluated
``health``          the overall health verdict changed (see
                    :mod:`repro.obs.health`)
``run_end``         the run finished (steps run, final metrics)
==================  =====================================================

:class:`EngineEventWriter` turns the trainer's records into these
lines.  ``round`` events carry enough detail (including the participant
ids) to reconstruct the :class:`~repro.hfl.telemetry.TelemetryRecorder`
view of the run offline — :func:`replay_telemetry` does exactly that,
and the test suite asserts the reconstruction equals the in-memory
recorder.

The sink is write-only with respect to the engine: emitting an event
never touches an RNG, model state or anything captured by a
``state_dict``, so enabling the log cannot change a run's results.
"""

from __future__ import annotations

import io
import json
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.hfl.telemetry import EdgeRoundRecord

__all__ = [
    "EngineEventWriter",
    "EventLog",
    "build_manifest",
    "read_events",
    "replay_telemetry",
]


def _git_revision() -> Optional[str]:
    """Best-effort git commit id of the working tree (None outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def build_manifest(
    seed: int,
    sampler: str,
    num_steps: int,
    config: Optional[Dict[str, Any]] = None,
    fault_profile: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The run-manifest payload written as the log's first line.

    ``config`` is a JSON-compatible dump of the scenario/HFL config,
    ``fault_profile`` the active profile's description (see
    :meth:`repro.faults.FaultModel.describe`), ``extra`` free-form
    caller fields (CLI argv, preset name, ...).
    """
    import numpy as np

    from repro import __version__

    manifest: Dict[str, Any] = {
        "seed": int(seed),
        "sampler": sampler,
        "num_steps": int(num_steps),
        "repro_version": __version__,
        "git_revision": _git_revision(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if config is not None:
        manifest["config"] = config
    manifest["fault_profile"] = fault_profile
    if extra:
        manifest.update(extra)
    return manifest


class EventLog:
    """Append-only JSONL sink for typed run events.

    ``target`` is a path (opened for writing, parents created) or any
    text stream (kept open, caller owns it).  Events are serialized with
    compact separators and sorted keys, so logs are diffable across
    runs; the stream is flushed on :meth:`close` and every
    ``flush_every`` events (default: every event, so a killed run's log
    is complete up to the crash).
    """

    def __init__(
        self,
        target: Union[str, Path, io.TextIOBase],
        flush_every: int = 1,
    ) -> None:
        if flush_every <= 0:
            raise ValueError(f"flush_every must be positive, got {flush_every}")
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = path.open("w")
            self._owns_stream = True
            self.path: Optional[Path] = path
        else:
            self._stream = target
            self._owns_stream = False
            self.path = None
        self._flush_every = flush_every
        self._since_flush = 0
        self._closed = False
        self.num_events = 0

    def emit(self, type: str, **fields: Any) -> None:
        """Append one event line ``{"type": type, **fields}``."""
        if self._closed:
            raise RuntimeError("event log is closed")
        record = {"type": type}
        record.update(fields)
        self._stream.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"),
                       allow_nan=True)
            + "\n"
        )
        self.num_events += 1
        self._since_flush += 1
        if self._since_flush >= self._flush_every:
            self._stream.flush()
            self._since_flush = 0

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Emit the run-manifest header (conventionally the first event)."""
        self.emit("manifest", **manifest)

    def flush(self) -> None:
        if not self._closed:
            self._stream.flush()
            self._since_flush = 0

    def close(self) -> None:
        if self._closed:
            return
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
        self._closed = True

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EngineEventWriter:
    """Subscriber that writes the trainer's records as typed events.

    Field names and event types are the log's replay contract with
    :func:`replay_telemetry`; ``health`` (the ``health`` monitor's
    overall verdict) is logged whenever it changes.
    """

    def __init__(self, log: EventLog, health=None) -> None:
        self.log = log
        self._health = health
        self._verdict: Optional[str] = None

    def record_round(
        self, t, edge, members, probabilities, participant_ids,
        grad_sq_norms, losses,
    ) -> None:
        record = EdgeRoundRecord.of_round(
            t, edge, members, probabilities, participant_ids,
            grad_sq_norms, losses,
        )
        self.log.emit(
            "round",
            t=record.t,
            edge=record.edge,
            num_members=record.num_members,
            participants=[int(m) for m in participant_ids],
            prob_sum=record.prob_sum,
            prob_max=record.prob_max,
            prob_min=record.prob_min,
            mean_grad_sq_norm=record.mean_grad_sq_norm,
            mean_loss=record.mean_loss,
        )

    def record_faults(
        self, t: int, edge: int, failures: Mapping[int, str], num_sampled: int
    ) -> None:
        failures = {str(device): kind for device, kind in failures.items()}
        self.log.emit(
            "fault", t=t, edge=edge, num_sampled=num_sampled, failures=failures
        )

    def record_sync_attempt(
        self, t, edge, failed_attempts, used_stale, backoff_seconds
    ) -> None:
        self.log.emit(
            "sync_attempt", t=t, edge=edge, failed_attempts=failed_attempts,
            used_stale=used_stale, backoff_seconds=backoff_seconds,
        )

    def record_churn(self, t, joined, left, num_active) -> None:
        # One event per device, departures first (the trainer's
        # transition order); each carries the post-transition active
        # count so replay rebuilds the ChurnRecord by grouping on t.
        for kind, devices in (("device_left", left), ("device_joined", joined)):
            for device in devices:
                self.log.emit(
                    kind, t=t, device=int(device), num_active=int(num_active)
                )

    def record_late_admit(self, t, edge, device, born_step, age, scale) -> None:
        self.log.emit(
            "late_admit", t=t, edge=edge, device=device,
            born_step=born_step, age=age, scale=scale,
        )

    def record_late_drop(self, t, edge, device, born_step, age) -> None:
        self.log.emit(
            "late_drop", t=t, edge=edge, device=device,
            born_step=born_step, age=age,
        )

    def record_eval(self, step: int, accuracy: float, loss: float) -> None:
        self.log.emit("eval", step=step, accuracy=accuracy, loss=loss)

    def record_checkpoint(self, step: int, path) -> None:
        self.log.emit("checkpoint", step=step, path=str(path))

    def end_step(self, t: int, seconds: float) -> None:
        report = self._health.last_report if self._health is not None else None
        if report is not None and report.verdict != self._verdict:
            self._verdict = report.verdict
            self.log.emit("health", **report.to_dict())

    def record_run_start(self, **fields: Any) -> None:
        self.log.emit("run_start", **fields)

    def record_run_end(self, **fields: Any) -> None:
        self.log.emit("run_end", **fields)
        self.log.flush()


def read_events(
    source: Union[str, Path, Iterable[str]],
) -> List[Dict[str, Any]]:
    """Parse a JSONL event log back into a list of event dicts.

    ``source`` is a log path or any iterable of JSON lines.  Blank
    lines are skipped; malformed lines raise (a truncated final line
    from a killed run is the one tolerated corruption).
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source
    events: List[Dict[str, Any]] = []
    lines = [line for line in lines if line.strip()]
    for i, line in enumerate(lines):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn final write from a killed run
            raise
    return events


def replay_telemetry(events: Iterable[Dict[str, Any]]):
    """Reconstruct a :class:`TelemetryRecorder` from a parsed event log.

    ``round`` events log the recorder's per-round fields verbatim (plus
    the participant ids), so the reconstruction restores them through
    :meth:`~repro.hfl.telemetry.TelemetryRecorder.load_state_dict` and
    the returned recorder's records, participation counts, fault
    counters and derived summaries are *exactly* the in-memory recorder
    of the run that wrote the log.  Phase wall-times are host
    observability, not logged per event, and stay empty — matching
    their exclusion from the recorder's own ``state_dict``.
    """
    from repro.hfl.telemetry import TelemetryRecorder

    records = []
    participation: Dict[int, int] = {}
    fault_counts: Dict[str, int] = {}
    degraded = []
    syncs = []
    # Churn is logged one event per device; regroup by step (events of
    # one step are contiguous and ordered departures-then-arrivals, so
    # a plain ordered dict rebuilds the per-step ChurnRecord exactly).
    churn_by_step: Dict[int, Dict[str, Any]] = {}
    late_admits = []
    late_drops = []
    for event in events:
        kind = event.get("type")
        if kind == "round":
            participants = [int(m) for m in event["participants"]]
            records.append(
                {
                    "t": int(event["t"]),
                    "edge": int(event["edge"]),
                    "num_members": int(event["num_members"]),
                    "num_participants": len(participants),
                    "prob_sum": float(event["prob_sum"]),
                    "prob_max": float(event["prob_max"]),
                    "prob_min": float(event["prob_min"]),
                    "mean_grad_sq_norm": event.get("mean_grad_sq_norm"),
                    "mean_loss": event.get("mean_loss"),
                }
            )
            for m in participants:
                participation[m] = participation.get(m, 0) + 1
        elif kind == "fault":
            by_kind: Dict[str, int] = {}
            for fault in event["failures"].values():
                by_kind[str(fault)] = by_kind.get(str(fault), 0) + 1
                fault_counts[str(fault)] = fault_counts.get(str(fault), 0) + 1
            degraded.append(
                {
                    "t": int(event["t"]),
                    "edge": int(event["edge"]),
                    "num_sampled": int(event["num_sampled"]),
                    "failures": by_kind,
                }
            )
        elif kind == "sync_attempt":
            failed = int(event["failed_attempts"])
            used_stale = bool(event["used_stale"])
            syncs.append(
                {
                    "t": int(event["t"]),
                    "edge": int(event["edge"]),
                    "failed_attempts": failed,
                    "used_stale": used_stale,
                    "backoff_seconds": float(event["backoff_seconds"]),
                }
            )
            if failed > 0:
                fault_counts["sync_failure"] = (
                    fault_counts.get("sync_failure", 0) + failed
                )
            if used_stale:
                fault_counts["stale_sync"] = fault_counts.get("stale_sync", 0) + 1
        elif kind in ("device_joined", "device_left"):
            t = int(event["t"])
            group = churn_by_step.setdefault(
                t, {"t": t, "joined": [], "left": [], "num_active": 0}
            )
            key = "joined" if kind == "device_joined" else "left"
            group[key].append(int(event["device"]))
            group["num_active"] = int(event["num_active"])
        elif kind == "late_admit":
            late_admits.append(
                {
                    "t": int(event["t"]),
                    "edge": int(event["edge"]),
                    "device": int(event["device"]),
                    "born_step": int(event["born_step"]),
                    "age": int(event["age"]),
                    "scale": float(event["scale"]),
                }
            )
        elif kind == "late_drop":
            late_drops.append(
                {
                    "t": int(event["t"]),
                    "edge": int(event["edge"]),
                    "device": int(event["device"]),
                    "born_step": int(event["born_step"]),
                    "age": int(event["age"]),
                }
            )

    recorder = TelemetryRecorder()
    recorder.load_state_dict(
        {
            "records": records,
            "participation": {str(k): v for k, v in participation.items()},
            "fault_counts": fault_counts,
            "degraded_rounds": degraded,
            "sync_attempts": syncs,
            "churn_records": list(churn_by_step.values()),
            "late_admits": late_admits,
            "late_drops": late_drops,
        }
    )
    return recorder
