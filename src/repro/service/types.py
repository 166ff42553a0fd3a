"""Typed status objects shared by the coordinator, clients and `repro.api`.

These are the wire-stable shapes of the service surface: everything a
transport carries is one of these dataclasses rendered through its
``to_dict`` (JSON-safe scalars only), and every client rehydrates with
the matching ``from_dict``.  Keeping them in one leaf module lets the
in-process coordinator, the HTTP layer and the top-level facade agree
on one vocabulary without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Lifecycle states a submitted run moves through.  Terminal states are
#: ``completed``, ``failed`` and ``stopped``; everything else is live.
RUN_STATES = (
    "queued",
    "running",
    "paused",
    "stopping",
    "completed",
    "failed",
    "stopped",
)

TERMINAL_STATES = ("completed", "failed", "stopped")


@dataclass(frozen=True)
class RoundStatus:
    """One completed engine step of a service run (a JSONL stream line).

    The service appends one of these to ``runs/<run_id>/metrics.jsonl``
    after every step; ``accuracy``/``loss`` are ``None`` except at
    evaluation points.
    """

    run_id: str
    step: int
    steps_run: int
    participants: int
    synced: bool
    evaluated: bool
    accuracy: Optional[float] = None
    loss: Optional[float] = None
    reached_target: bool = False
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "step": self.step,
            "steps_run": self.steps_run,
            "participants": self.participants,
            "synced": self.synced,
            "evaluated": self.evaluated,
            "accuracy": self.accuracy,
            "loss": self.loss,
            "reached_target": self.reached_target,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RoundStatus":
        return cls(
            run_id=str(data["run_id"]),
            step=int(data["step"]),
            steps_run=int(data["steps_run"]),
            participants=int(data["participants"]),
            synced=bool(data["synced"]),
            evaluated=bool(data["evaluated"]),
            accuracy=(
                None if data.get("accuracy") is None else float(data["accuracy"])
            ),
            loss=None if data.get("loss") is None else float(data["loss"]),
            reached_target=bool(data.get("reached_target", False)),
            seconds=float(data.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class RunStatus:
    """Point-in-time lifecycle snapshot of a submitted run."""

    run_id: str
    state: str
    sampler: str
    #: ``None`` only for a run whose scenario did not load.
    seed: Optional[int]
    num_steps: int
    steps_run: int = 0
    preset: Optional[str] = None
    final_accuracy: Optional[float] = None
    reached_target_at: Optional[int] = None
    error: Optional[str] = None
    resumed_from_step: Optional[int] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "state": self.state,
            "sampler": self.sampler,
            "seed": self.seed,
            "num_steps": self.num_steps,
            "steps_run": self.steps_run,
            "preset": self.preset,
            "final_accuracy": self.final_accuracy,
            "reached_target_at": self.reached_target_at,
            "error": self.error,
            "resumed_from_step": self.resumed_from_step,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunStatus":
        return cls(
            run_id=str(data["run_id"]),
            state=str(data["state"]),
            sampler=str(data["sampler"]),
            seed=None if data.get("seed") is None else int(data["seed"]),
            num_steps=int(data["num_steps"]),
            steps_run=int(data.get("steps_run", 0)),
            preset=(
                None if data.get("preset") is None else str(data["preset"])
            ),
            final_accuracy=(
                None
                if data.get("final_accuracy") is None
                else float(data["final_accuracy"])
            ),
            reached_target_at=(
                None
                if data.get("reached_target_at") is None
                else int(data["reached_target_at"])
            ),
            error=None if data.get("error") is None else str(data["error"]),
            resumed_from_step=(
                None
                if data.get("resumed_from_step") is None
                else int(data["resumed_from_step"])
            ),
        )


@dataclass(frozen=True)
class RunResultSummary:
    """JSON-safe summary of a finished run's :class:`TrainingResult`.

    The flat model vector itself never crosses the wire — remote
    callers get its SHA-256 so bit-identity can still be asserted
    end-to-end; in-process callers reach the full
    :class:`~repro.hfl.trainer.TrainingResult` through the coordinator.
    """

    run_id: str
    sampler: str
    steps_run: int
    final_accuracy: Optional[float]
    best_accuracy: Optional[float]
    reached_target_at: Optional[int]
    mean_participants_per_step: float
    late_admits: int = 0
    late_drops: int = 0
    devices_joined: int = 0
    devices_left: int = 0
    cloud_model_sha256: Optional[str] = None
    history: Dict[str, List[float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "sampler": self.sampler,
            "steps_run": self.steps_run,
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
            "reached_target_at": self.reached_target_at,
            "mean_participants_per_step": self.mean_participants_per_step,
            "late_admits": self.late_admits,
            "late_drops": self.late_drops,
            "devices_joined": self.devices_joined,
            "devices_left": self.devices_left,
            "cloud_model_sha256": self.cloud_model_sha256,
            "history": dict(self.history),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResultSummary":
        return cls(
            run_id=str(data["run_id"]),
            sampler=str(data["sampler"]),
            steps_run=int(data["steps_run"]),
            final_accuracy=(
                None
                if data.get("final_accuracy") is None
                else float(data["final_accuracy"])
            ),
            best_accuracy=(
                None
                if data.get("best_accuracy") is None
                else float(data["best_accuracy"])
            ),
            reached_target_at=(
                None
                if data.get("reached_target_at") is None
                else int(data["reached_target_at"])
            ),
            mean_participants_per_step=float(
                data["mean_participants_per_step"]
            ),
            late_admits=int(data.get("late_admits", 0)),
            late_drops=int(data.get("late_drops", 0)),
            devices_joined=int(data.get("devices_joined", 0)),
            devices_left=int(data.get("devices_left", 0)),
            cloud_model_sha256=(
                None
                if data.get("cloud_model_sha256") is None
                else str(data["cloud_model_sha256"])
            ),
            history={
                key: [float(v) for v in values]
                for key, values in dict(data.get("history", {})).items()
            },
        )
