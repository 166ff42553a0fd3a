"""The always-on HFL coordinator: a long-running loop around the trainer.

The :class:`Coordinator` owns a scenario registry — :meth:`submit`
queues a :class:`~repro.experiments.config.ScenarioConfig` and returns a
``run_id`` — and a single dispatcher thread that executes runs one at a
time by driving :meth:`HFLTrainer.steps`, the resumable step generator.
Every step runs through the same barrier pipeline as the synchronous
trainer, so a service run is bit-identical to
:func:`~repro.api.run_scenario` (the contract
`tests/service` asserts on both executor backends).

Lifecycle: :meth:`pause` / :meth:`resume_run` gate the loop between
steps, :meth:`stop` closes the generator at the next step boundary, and
each run checkpoints periodically through the trainer's own
checksummed checkpoints (rotated ``.prev`` copies).  A coordinator
restarted over the same ``state_dir`` recovers crashed runs with
:meth:`recover`: the run manifest names everything needed to rebuild
the trainer, :meth:`TrainerCheckpoint.load_with_fallback` picks the
newest intact snapshot, and the named per-``(step, edge, device)`` seed
streams replay the remaining steps exactly — a kill −9 mid-round loses
wall-clock, never results.

The coordinator itself is transport-agnostic: in-process callers use it
directly (or through :mod:`repro.api`), and :mod:`repro.service.http`
exposes the same surface over stdlib HTTP.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.data.synthetic import example_size
from repro.experiments.config import DEFAULT_SAMPLER, ScenarioConfig, check_sampler
from repro.experiments.runner import build_trainer
from repro.faults import TrainerCheckpoint
from repro.hfl.trainer import TrainingResult
from repro.obs.health import HealthMonitor, HealthReport, default_rules
from repro.obs.metrics import MetricsRegistry
from repro.service.types import (
    TERMINAL_STATES,
    RoundStatus,
    RunResultSummary,
    RunStatus,
)

#: Default cadence (in engine steps) of the per-run checkpoints the
#: service writes when it has a ``state_dir`` to write into.
DEFAULT_CHECKPOINT_EVERY = 5

#: Most runs :meth:`Coordinator.submit` lets wait in the queue at once;
#: a submission beyond it raises :class:`QueueFullError` (HTTP 429).
MAX_QUEUED_RUNS = 64

#: Largest population, horizon (steps) and data volume (training plus
#: test samples times the values in one sample) :meth:`Coordinator.submit`
#: accepts, each far above every preset and the 100k-device flagship
#: (``cifar10-paper`` holds 1.5e8 values, and 1.5e10 at ten times its
#: devices and samples); past one it raises a ``ValueError`` naming the
#: field (HTTP 400), so no run is built.
MAX_RUN_DEVICES = 1_000_000
MAX_RUN_STEPS = 100_000
MAX_RUN_VALUES = 30_000_000_000


class UnknownRunError(KeyError):
    """No run with the requested id exists in this coordinator."""


class QueueFullError(RuntimeError):
    """:data:`MAX_QUEUED_RUNS` runs are already waiting to execute."""


def _check_run_size(config: ScenarioConfig) -> None:
    """Refuse a scenario past one of the ``MAX_RUN_*`` bounds."""
    samples = config.num_devices * config.samples_per_device + config.test_samples
    values = samples * example_size(config.task, config.image_size)
    for name, value, limit in (
        ("num_devices", config.num_devices, MAX_RUN_DEVICES),
        ("num_steps", config.num_steps, MAX_RUN_STEPS),
        (
            "(num_devices * samples_per_device + test_samples) * values per sample",
            values,
            MAX_RUN_VALUES,
        ),
    ):
        if value > limit:
            raise ValueError(f"{name}={value} exceeds the service limit of {limit}")


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via a temp file and an atomic rename."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


@dataclass
class _RunRecord:
    """Everything the coordinator tracks about one submitted run."""

    run_id: str
    #: ``None`` only for a run :meth:`Coordinator.recover` could not
    #: rebuild (it is registered straight into ``failed``).
    config: Optional[ScenarioConfig]
    sampler: str
    stop_at_target: bool = False
    preset: Optional[str] = None
    state: str = "queued"
    steps_run: int = 0
    final_accuracy: Optional[float] = None
    reached_target_at: Optional[int] = None
    error: Optional[str] = None
    resume_from: Optional[TrainerCheckpoint] = None
    resumed_from_step: Optional[int] = None
    rounds: List[RoundStatus] = field(default_factory=list)
    result: Optional[TrainingResult] = None
    #: Set = running; cleared = paused.  The dispatcher waits on it
    #: between steps, so pausing never splits an engine step.
    unpaused: threading.Event = field(default_factory=threading.Event)
    stop_requested: bool = False
    done: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        self.unpaused.set()

    def status(self) -> RunStatus:
        return RunStatus(
            run_id=self.run_id,
            state=self.state,
            sampler=self.sampler,
            seed=None if self.config is None else self.config.seed,
            num_steps=0 if self.config is None else self.config.num_steps,
            steps_run=self.steps_run,
            preset=self.preset,
            final_accuracy=self.final_accuracy,
            reached_target_at=self.reached_target_at,
            error=self.error,
            resumed_from_step=self.resumed_from_step,
        )


class Coordinator:
    """Always-on coordinator: submit scenarios, stream rounds, recover.

    ``state_dir`` makes the service durable: each run gets
    ``runs/<run_id>/`` holding a JSON manifest (enough to rebuild the
    trainer), the rotating checkpoint pair and the per-round metrics
    JSONL.  Without a ``state_dir`` the coordinator is purely in-memory
    (no checkpoints, no recovery) — handy for tests and notebooks.

    ``checkpoint_every`` is the per-run checkpoint cadence in steps
    (default :data:`DEFAULT_CHECKPOINT_EVERY`; ignored without a
    ``state_dir``).  A shared :class:`MetricsRegistry` backs the
    Prometheus scrape and the :class:`HealthMonitor` driving
    :meth:`health`.
    """

    def __init__(
        self,
        state_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.state_dir = None if state_dir is None else Path(state_dir)
        self.checkpoint_every = (
            checkpoint_every if self.state_dir is not None else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.health_monitor = HealthMonitor(
            self.metrics, rules=default_rules(self.checkpoint_every)
        )
        self._runs: Dict[str, _RunRecord] = {}
        self._lock = threading.RLock()
        self._round_seen = threading.Condition(self._lock)
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._next_id = 1
        self._closed = False
        if self.state_dir is not None:
            (self.state_dir / "runs").mkdir(parents=True, exist_ok=True)
            for entry in sorted((self.state_dir / "runs").iterdir()):
                name = entry.name
                if name.startswith("run-") and name[4:].isdigit():
                    self._next_id = max(self._next_id, int(name[4:]) + 1)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-coordinator", daemon=True
        )
        self._dispatcher.start()

    # -- registry ------------------------------------------------------------

    def submit(
        self,
        config: ScenarioConfig,
        sampler: str = DEFAULT_SAMPLER,
        seed: Optional[int] = None,
        stop_at_target: bool = False,
        preset: Optional[str] = None,
        run_id: Optional[str] = None,
        _resume_from: Optional[TrainerCheckpoint] = None,
        _recovered: bool = False,
    ) -> str:
        """Register a scenario for execution; returns its ``run_id``.

        Runs execute sequentially in submission order on the dispatcher
        thread — the determinism-first scheduling policy (every run owns
        the full machine, exactly like the synchronous CLI).  With
        :data:`MAX_QUEUED_RUNS` runs already queued, raises
        :class:`QueueFullError` and registers nothing; runs that
        :meth:`recover` resubmits are exempt, as they were accepted
        before the crash.  A scenario past a ``MAX_RUN_*`` bound raises
        ``ValueError``.  ``seed`` replaces the scenario's.
        """
        check_sampler(sampler)
        if seed is not None:
            config = config.with_overrides(seed=seed)
        _check_run_size(config)
        with self._lock:
            if self._closed:
                raise RuntimeError("coordinator is shut down")
            queued = sum(r.state == "queued" for r in self._runs.values())
            if not _recovered and queued >= MAX_QUEUED_RUNS:
                raise QueueFullError(
                    f"{queued} runs are already queued (the limit is "
                    f"{MAX_QUEUED_RUNS}); retry once some have started"
                )
            if run_id is None:
                run_id = f"run-{self._next_id:04d}"
                self._next_id += 1
            elif run_id in self._runs:
                raise ValueError(f"run id {run_id!r} already exists")
            record = _RunRecord(
                run_id=run_id,
                config=config,
                sampler=sampler,
                stop_at_target=stop_at_target,
                preset=preset,
                resume_from=_resume_from,
            )
            if _resume_from is not None:
                record.resumed_from_step = _resume_from.step
                record.steps_run = _resume_from.step
            self._runs[run_id] = record
            self._write_manifest(record)
        self._queue.put(run_id)
        return run_id

    def list_runs(self) -> List[RunStatus]:
        with self._lock:
            return [r.status() for r in self._runs.values()]

    def status(self, run_id: str) -> RunStatus:
        return self._record(run_id).status()

    def _record(self, run_id: str) -> _RunRecord:
        with self._lock:
            try:
                return self._runs[run_id]
            except KeyError:
                raise UnknownRunError(run_id) from None

    # -- lifecycle control ---------------------------------------------------

    def pause(self, run_id: str) -> RunStatus:
        """Hold the run at its next step boundary (no-op when terminal)."""
        record = self._record(run_id)
        with self._lock:
            if record.state in ("queued", "running"):
                record.unpaused.clear()
                if record.state == "running":
                    record.state = "paused"
                self._write_manifest(record)
        return record.status()

    def resume_run(self, run_id: str) -> RunStatus:
        """Release a paused run (no-op otherwise)."""
        record = self._record(run_id)
        with self._lock:
            if record.state == "paused":
                record.state = "running"
                self._write_manifest(record)
            record.unpaused.set()
        return record.status()

    def stop(self, run_id: str) -> RunStatus:
        """Stop the run at its next step boundary.

        A queued run is cancelled outright; a running (or paused) run
        closes its step generator after the current step, checkpoints
        its final state when durable, and lands in ``stopped`` with a
        packaged partial result.
        """
        record = self._record(run_id)
        with self._lock:
            record.stop_requested = True
            record.unpaused.set()  # a paused run must wake up to stop
            if record.state == "queued":
                record.state = "stopped"
                record.done.set()
                self._write_manifest(record)
                self._round_seen.notify_all()
        return record.status()

    def result(
        self, run_id: str, timeout: Optional[float] = None
    ) -> TrainingResult:
        """Block until the run is terminal; return its training result."""
        record = self._record(run_id)
        if not record.done.wait(timeout):
            raise TimeoutError(f"run {run_id} still {record.state}")
        if record.result is None:
            raise RuntimeError(
                f"run {run_id} ended {record.state} without a result: "
                f"{record.error}"
            )
        return record.result

    def summary(self, run_id: str) -> RunResultSummary:
        """JSON-safe summary of a terminal run (see :class:`RunResultSummary`)."""
        record = self._record(run_id)
        result = self.result(run_id, timeout=0.0)
        digest = None
        if result.final_cloud_model is not None:
            digest = hashlib.sha256(
                result.final_cloud_model.tobytes()
            ).hexdigest()
        has_history = bool(result.history.accuracy)
        return RunResultSummary(
            run_id=run_id,
            sampler=result.sampler_name,
            steps_run=result.steps_run,
            final_accuracy=(
                result.history.final_accuracy() if has_history else None
            ),
            best_accuracy=(
                result.history.best_accuracy() if has_history else None
            ),
            reached_target_at=result.reached_target_at,
            mean_participants_per_step=result.mean_participants_per_step,
            late_admits=result.late_admits,
            late_drops=result.late_drops,
            devices_joined=result.devices_joined,
            devices_left=result.devices_left,
            cloud_model_sha256=digest,
            history={
                "steps": [float(s) for s in result.history.steps],
                "accuracy": list(result.history.accuracy),
                "loss": list(result.history.loss),
            },
        )

    def stream(
        self, run_id: str, follow: bool = False, timeout: Optional[float] = None
    ) -> Iterator[RoundStatus]:
        """Yield the run's per-step round statuses in step order.

        ``follow=True`` keeps the iterator live until the run reaches a
        terminal state (the JSONL-over-HTTP endpoint tails this);
        ``timeout`` bounds each wait for the next round.
        """
        record = self._record(run_id)
        index = 0
        while True:
            with self._lock:
                while index >= len(record.rounds):
                    if not follow or record.state in TERMINAL_STATES:
                        return
                    if not self._round_seen.wait(timeout):
                        return
                pending = list(record.rounds[index:])
                index += len(pending)
            # Yield outside the lock: a slow consumer must never stall
            # the dispatcher's round appends.
            for round_status in pending:
                yield round_status

    # -- observability surface ----------------------------------------------

    def health(self) -> HealthReport:
        """The coordinator's SLO verdict (``ok`` until data says otherwise)."""
        report = self.health_monitor.last_report
        if report is None:
            # No engine steps observed yet: an idle service is healthy.
            report = HealthReport(step=0, verdict="ok")
        return report

    def prometheus(self) -> str:
        """The shared registry in Prometheus text exposition format."""
        return self.metrics.render_prometheus()

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> List[str]:
        """Resubmit every non-terminal run found under ``state_dir``.

        For each recovered run the newest intact checkpoint (primary or
        rotated ``.prev``, via
        :meth:`TrainerCheckpoint.load_with_fallback`) seeds the resume;
        a run that died before its first checkpoint restarts from step
        0 — either way the replayed history is bit-identical to an
        uninterrupted run.  A run whose manifest, config or checkpoint
        fails to load is registered as ``failed`` with the error in its
        manifest, its files left in place; the other runs still
        recover.  A checkpoint of another scenario fails its run at the
        trainer's restore.  Returns the recovered run ids.
        """
        if self.state_dir is None:
            return []
        recovered: List[str] = []
        for run_dir in sorted((self.state_dir / "runs").iterdir()):
            manifest_path = run_dir / "run.json"
            if not manifest_path.is_file():
                continue
            with self._lock:
                if run_dir.name in self._runs:
                    continue
            manifest = None
            try:
                manifest = json.loads(manifest_path.read_text())
                if manifest["state"] in TERMINAL_STATES:
                    continue
                config = ScenarioConfig.from_dict(manifest["config"])
                checkpoint = None
                checkpoint_path = run_dir / "checkpoint.json"
                if checkpoint_path.is_file() or Path(
                    str(checkpoint_path) + ".prev"
                ).is_file():
                    checkpoint, _used = TrainerCheckpoint.load_with_fallback(
                        checkpoint_path
                    )
                self._trim_round_log(
                    run_dir, 0 if checkpoint is None else checkpoint.step
                )
                self.submit(
                    config,
                    sampler=manifest["sampler"],
                    stop_at_target=manifest.get("stop_at_target", False),
                    preset=manifest.get("preset"),
                    run_id=run_dir.name,
                    _resume_from=checkpoint,
                    _recovered=True,
                )
            except Exception as error:  # noqa: BLE001 - run isolation
                self._register_unrecoverable(run_dir, manifest, error)
                continue
            recovered.append(run_dir.name)
        return recovered

    def _register_unrecoverable(
        self, run_dir: Path, manifest: object, error: Exception
    ) -> None:
        """Mark a run :meth:`recover` could not rebuild as ``failed``.

        Whatever of the manifest parsed is kept (the raw config too, so
        an operator can repair it by hand); only ``state`` and
        ``error`` change.
        """
        fields = dict(manifest) if isinstance(manifest, dict) else {}
        record = _RunRecord(
            run_id=run_dir.name,
            config=None,
            sampler=str(fields.get("sampler", "")),
            state="failed",
            error=f"{type(error).__name__}: {error}",
        )
        record.done.set()
        fields.update(run_id=record.run_id, state="failed", error=record.error)
        with self._lock:
            self._runs[record.run_id] = record
            _write_json_atomic(run_dir / "run.json", fields)

    def _trim_round_log(self, run_dir: Path, resume_step: int) -> None:
        """Drop JSONL rounds past the checkpoint so the replay appends
        cleanly (steps between the snapshot and the crash are re-run)."""
        log_path = run_dir / "metrics.jsonl"
        if not log_path.is_file():
            return
        kept = []
        for line in log_path.read_text().splitlines():
            if not line.strip():
                continue
            if int(json.loads(line)["steps_run"]) <= resume_step:
                kept.append(line)
        log_path.write_text("".join(line + "\n" for line in kept))

    # -- execution -----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            run_id = self._queue.get()
            if run_id is None:
                return
            record = self._record(run_id)
            with self._lock:
                if record.state != "queued":
                    continue  # cancelled while queued
                record.state = "paused" if not record.unpaused.is_set() else "running"
                self._write_manifest(record)
            try:
                self._execute_run(record)
            except Exception as error:  # noqa: BLE001 - run isolation
                with self._lock:
                    record.state = "failed"
                    record.error = f"{type(error).__name__}: {error}"
                    record.done.set()
                    self._write_manifest(record)
                    self._round_seen.notify_all()

    def _run_dir(self, run_id: str) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / "runs" / run_id

    def _write_manifest(self, record: _RunRecord) -> None:
        run_dir = self._run_dir(record.run_id)
        if run_dir is None:
            return
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "run_id": record.run_id,
            "config": record.config.to_dict(),
            "sampler": record.sampler,
            "stop_at_target": record.stop_at_target,
            "preset": record.preset,
            "state": record.state,
            "steps_run": record.steps_run,
            "error": record.error,
        }
        _write_json_atomic(run_dir / "run.json", manifest)

    def _execute_run(self, record: _RunRecord) -> None:
        config = record.config
        run_dir = self._run_dir(record.run_id)
        if run_dir is not None and self.checkpoint_every is not None:
            config = config.with_overrides(
                checkpoint_every=self.checkpoint_every,
                checkpoint_path=str(run_dir / "checkpoint.json"),
            )
        from repro.obs import Observability

        obs = Observability(metrics=self.metrics, health=self.health_monitor)
        trainer = build_trainer(config, record.sampler, obs=obs)
        log_handle = None
        try:
            if run_dir is not None:
                mode = "a" if record.resume_from is not None else "w"
                log_handle = open(run_dir / "metrics.jsonl", mode)
            stepper = trainer.steps(
                config.num_steps,
                target_accuracy=config.target_accuracy,
                stop_at_target=record.stop_at_target,
                resume_from=record.resume_from,
            )
            stopped = False
            for outcome in stepper:
                round_status = RoundStatus(
                    run_id=record.run_id,
                    step=outcome.step,
                    steps_run=outcome.steps_run,
                    participants=outcome.participants,
                    synced=outcome.synced,
                    evaluated=outcome.evaluated,
                    accuracy=outcome.accuracy,
                    loss=outcome.loss,
                    reached_target=outcome.reached_target,
                    seconds=outcome.seconds,
                )
                if log_handle is not None:
                    log_handle.write(json.dumps(round_status.to_dict()) + "\n")
                    log_handle.flush()
                with self._lock:
                    record.steps_run = outcome.steps_run
                    record.rounds.append(round_status)
                    self._round_seen.notify_all()
                if record.stop_requested:
                    stepper.close()
                    stopped = True
                    break
                # Pause gate: the manifest already says "paused" (the
                # pause() call wrote it); the engine simply holds here.
                record.unpaused.wait()
                if record.stop_requested:
                    stepper.close()
                    stopped = True
                    break
            result = trainer.result()
            if stopped and run_dir is not None and result.steps_run > 0:
                # Durable stop: snapshot the final state so a later
                # recover() sees a terminal manifest and a checkpoint
                # consistent with the last completed step.
                trainer.make_checkpoint(result.steps_run).save(
                    run_dir / "checkpoint.json"
                )
            with self._lock:
                record.result = result
                record.steps_run = result.steps_run
                # A run stopped before its first evaluation has an
                # empty history — no accuracy to report, not an error.
                record.final_accuracy = (
                    result.history.final_accuracy()
                    if result.history.accuracy
                    else None
                )
                record.reached_target_at = result.reached_target_at
                record.state = "stopped" if stopped else "completed"
                record.done.set()
                self._write_manifest(record)
                self._round_seen.notify_all()
        finally:
            if log_handle is not None:
                log_handle.close()
            trainer.close()

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work and join the dispatcher (idempotent).

        Queued runs are cancelled; a run mid-flight is stopped at its
        next step boundary (durable state lands on disk, so a restarted
        coordinator can :meth:`recover` it).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for record in self._runs.values():
                if record.state in ("queued", "running", "paused"):
                    record.stop_requested = True
                    record.unpaused.set()
                    if record.state == "queued":
                        record.state = "stopped"
                        record.done.set()
                        self._write_manifest(record)
            self._round_seen.notify_all()
        self._queue.put(None)
        self._dispatcher.join(timeout)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
