"""Checkpoint/resume for :class:`repro.hfl.trainer.HFLTrainer`.

A :class:`TrainerCheckpoint` captures everything the trainer mutates
over a run — edge and cloud models, the last successfully synced edge
models (the sync-failure fallback), the sampler's learned state, the
telemetry stream, the training history and counters — at a step
boundary.  Because every random draw in the engine comes from a named
stream keyed by ``(step, edge, device)`` (never from a stateful
cursor), restoring this snapshot and continuing at step ``k`` replays
the exact byte-for-byte history an uninterrupted run would have
produced; ``tests/faults/test_checkpoint.py`` asserts it.

Serialization goes through :mod:`repro.utils.serialization`'s exact
codec (:func:`~repro.utils.serialization.to_jsonable`): every ndarray
— models, the sampler's columnar state, the churn mask — is stored as
its raw bytes in base64, so a checkpoint costs what its bytes cost and
round-trips −0.0, ±inf and NaN exactly.  :meth:`TrainerCheckpoint.save`
encodes the payload once: the file is the canonical JSON text the
SHA-256 checksum is computed over, with the checksum appended.

Models are checkpointed only as flat parameter vectors — never as
layer objects — so the codec is independent of how a live
:class:`~repro.nn.model.Model` stores parameters.  With the
flat-buffer aliasing redesign this stays true in both directions:
``edge_models`` / ``cloud_model`` are standalone arrays (copies of the
canonical buffer, not views into it), and restoring installs them via
``load_flat``-style copies, so a resumed trainer re-aliases its own
fresh buffer.  Resume bit-equality additionally relies on the
experience tracker computing buffer averages over the *full* restored
buffer (see :class:`repro.core.experience.ExperienceTracker`), never
from running partial sums.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.utils.serialization import (
    ArrayDecodeError,
    from_jsonable,
    to_jsonable,
)

#: Format marker so layout changes are detected on load.  v2 (the
#: topology layer) added the ``topology_name`` / ``aggregation_name``
#: run fingerprints and the ``topology_state`` snapshot.  v3 (the
#: open-population layer) added the ``churn_state`` snapshot, the
#: ``stale_buffer`` of parked late uploads, the ``robustness_counters``
#: and the SHA-256 ``payload_sha256`` integrity checksum.  v4 stores
#: arrays as base64 raw bytes instead of decimal lists, and the MACH
#: tracker's state as columns instead of one dict per device.  Only the
#: current version loads, and only with its checksum.
CHECKPOINT_VERSION = 4


class CheckpointIntegrityError(ValueError):
    """A checkpoint file is unreadable, truncated or fails its checksum."""


class CheckpointMismatchError(ValueError):
    """A checkpoint does not belong to the scenario that resumes it.

    ``field`` names the setting that differs: a scenario field
    (``"seed"``, ``"num_edges"``, ...), ``"sampler"``, or ``"model"``
    for the model architecture, so a front end can name the option to
    change.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def _canonical_json(body: Dict[str, Any]) -> str:
    """The canonical JSON text of ``body`` (sorted keys, no whitespace)."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _payload_checksum(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``payload`` minus the checksum.

    Canonical form (sorted keys, no whitespace) makes the digest
    independent of dict insertion order and of how the file was
    pretty-printed, so a checkpoint survives a re-serialization but
    never a flipped bit in its data.
    """
    body = {k: v for k, v in payload.items() if k != "payload_sha256"}
    return _sha256(_canonical_json(body))


@dataclass
class TrainerCheckpoint:
    """One resumable snapshot of an HFL run at a step boundary.

    ``step`` counts *completed* steps: resuming continues at ``t =
    step``.  ``master_seed`` and ``sampler_name`` fingerprint the run so
    a checkpoint cannot silently resume a different experiment.
    """

    step: int
    master_seed: int
    sampler_name: str
    edge_models: List[np.ndarray]
    cloud_model: np.ndarray
    last_synced_edge_models: List[np.ndarray]
    sampler_state: Dict[str, Any]
    history_steps: List[int]
    history_accuracy: List[float]
    history_loss: List[float]
    participation_counts: np.ndarray
    total_participants: int
    reached_target_at: Optional[int] = None
    telemetry_state: Optional[Dict[str, Any]] = None
    topology_name: str = "hierarchical"
    aggregation_name: str = "ipw"
    topology_state: Dict[str, Any] = field(default_factory=dict)
    #: Open-population snapshot (``None`` for a closed-world run).
    churn_state: Optional[Dict[str, Any]] = None
    #: Parked late uploads awaiting admission (see DESIGN.md §13).
    stale_buffer: List[Dict[str, Any]] = field(default_factory=list)
    #: Robustness accounting the trainer surfaces in its result
    #: (simulated backoff, late admits/drops, churn totals).
    robustness_counters: Dict[str, Any] = field(default_factory=dict)
    #: Adaptive-evaluation cursor (``None`` for fixed cadence or for
    #: checkpoints that predate it): next due step, current interval,
    #: and the accuracy of the previous evaluation.
    eval_state: Optional[Dict[str, Any]] = None
    version: int = CHECKPOINT_VERSION

    def _body(self) -> Dict[str, Any]:
        """The JSON-safe payload without its checksum."""
        return to_jsonable(
            {
                "version": self.version,
                "step": self.step,
                "master_seed": self.master_seed,
                "sampler_name": self.sampler_name,
                "edge_models": self.edge_models,
                "cloud_model": self.cloud_model,
                "last_synced_edge_models": self.last_synced_edge_models,
                "sampler_state": self.sampler_state,
                "history_steps": self.history_steps,
                "history_accuracy": self.history_accuracy,
                "history_loss": self.history_loss,
                "participation_counts": self.participation_counts,
                "total_participants": self.total_participants,
                "reached_target_at": self.reached_target_at,
                "telemetry_state": self.telemetry_state,
                "topology_name": self.topology_name,
                "aggregation_name": self.aggregation_name,
                "topology_state": self.topology_state,
                "churn_state": self.churn_state,
                "stale_buffer": self.stale_buffer,
                "robustness_counters": self.robustness_counters,
                "eval_state": self.eval_state,
            }
        )

    def to_dict(self) -> Dict[str, Any]:
        """Encode into a JSON-safe dict (arrays tagged for exactness).

        The returned payload carries a ``payload_sha256`` checksum over
        its canonical JSON, so :meth:`from_dict` detects any on-disk
        corruption that still parses as JSON.
        """
        payload = self._body()
        payload["payload_sha256"] = _payload_checksum(payload)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TrainerCheckpoint":
        """Rebuild from :meth:`to_dict` output.

        Raises :class:`ValueError` for a missing key or any version but
        :data:`CHECKPOINT_VERSION`, and :class:`CheckpointIntegrityError`
        when ``payload_sha256`` is absent or does not match, or when a
        tagged array is malformed.
        """
        required = {
            "version",
            "step",
            "master_seed",
            "sampler_name",
            "edge_models",
            "cloud_model",
            "last_synced_edge_models",
            "sampler_state",
        }
        missing = required - set(payload)
        if missing:
            raise ValueError(f"checkpoint missing keys: {sorted(missing)}")
        version = payload["version"]
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        stored_checksum = payload.get("payload_sha256")
        if stored_checksum is None:
            raise CheckpointIntegrityError(
                "checkpoint payload has no payload_sha256 checksum"
            )
        actual = _payload_checksum(payload)
        if actual != stored_checksum:
            raise CheckpointIntegrityError(
                "checkpoint payload fails its SHA-256 checksum "
                f"(stored {stored_checksum[:12]}…, recomputed "
                f"{actual[:12]}…) — the file was corrupted after it "
                "was written"
            )
        try:
            decoded = from_jsonable(payload)
        except ArrayDecodeError as exc:
            raise CheckpointIntegrityError(
                f"checkpoint payload is malformed: {exc}"
            ) from None
        return cls(
            step=int(decoded["step"]),
            master_seed=int(decoded["master_seed"]),
            sampler_name=str(decoded["sampler_name"]),
            # Arrays pass through unconverted: the trainer's restore
            # checks their dtypes and shapes against its own models.
            edge_models=list(decoded["edge_models"]),
            cloud_model=decoded["cloud_model"],
            last_synced_edge_models=list(decoded["last_synced_edge_models"]),
            sampler_state=dict(decoded["sampler_state"]),
            history_steps=[int(s) for s in decoded.get("history_steps", [])],
            history_accuracy=list(decoded.get("history_accuracy", [])),
            history_loss=list(decoded.get("history_loss", [])),
            participation_counts=decoded.get("participation_counts"),
            total_participants=int(decoded.get("total_participants", 0)),
            reached_target_at=decoded.get("reached_target_at"),
            telemetry_state=decoded.get("telemetry_state"),
            topology_name=str(decoded.get("topology_name", "hierarchical")),
            aggregation_name=str(decoded.get("aggregation_name", "ipw")),
            topology_state=dict(decoded.get("topology_state") or {}),
            churn_state=decoded.get("churn_state"),
            stale_buffer=list(decoded.get("stale_buffer") or []),
            robustness_counters=dict(decoded.get("robustness_counters") or {}),
            # Pre-adaptive-cadence checkpoints carry no eval cursor; the
            # trainer re-derives one from the restored history.
            eval_state=decoded.get("eval_state"),
            version=CHECKPOINT_VERSION,
        )

    @staticmethod
    def previous_path(path: Union[str, Path]) -> Path:
        """Where :meth:`save` rotates the previously saved checkpoint."""
        path = Path(path)
        return path.with_name(path.name + ".prev")

    def save(self, path: Union[str, Path]) -> Path:
        """Write the checkpoint atomically (write-then-rename).

        A crash mid-write must never leave a truncated checkpoint where
        a resumable one used to be.  An existing checkpoint at ``path``
        is rotated to ``<name>.prev`` first, so even post-write
        corruption of the newest file (bad disk, concurrent truncation)
        leaves one older resumable snapshot behind —
        :meth:`load_with_fallback` picks it up.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        # One encode: the file is the canonical text the checksum covers,
        # with the checksum spliced in as its last key.
        text = _canonical_json(self._body())
        tmp.write_text(f'{text[:-1]},"payload_sha256":"{_sha256(text)}"}}')
        if path.exists():
            path.replace(self.previous_path(path))
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TrainerCheckpoint":
        """Read a checkpoint written by :meth:`save`.

        Raises :class:`CheckpointIntegrityError` (naming the file) when
        the file is truncated, not valid JSON, not a checkpoint object,
        or fails its payload checksum — distinct from
        :class:`FileNotFoundError` so callers can fall back to the
        rotated copy only on integrity failures they can explain.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no checkpoint at {path}")
        try:
            payload = json.loads(path.read_bytes())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointIntegrityError(
                f"checkpoint at {path} is truncated or not valid JSON "
                f"({exc})"
            ) from None
        if not isinstance(payload, dict):
            raise CheckpointIntegrityError(
                f"checkpoint at {path} is valid JSON but not a checkpoint "
                f"object (top-level {type(payload).__name__})"
            )
        try:
            return cls.from_dict(payload)
        except CheckpointIntegrityError as exc:
            raise CheckpointIntegrityError(
                f"checkpoint at {path}: {exc}"
            ) from None

    @classmethod
    def load_with_fallback(
        cls, path: Union[str, Path]
    ) -> Tuple["TrainerCheckpoint", Path]:
        """Load ``path``, falling back to its rotated ``.prev`` copy.

        Returns ``(checkpoint, path_actually_loaded)``.  The fallback
        fires when the primary file is missing, truncated or fails its
        checksum; if the rotated copy is no better, the *primary* error
        propagates (it names the file the caller asked for).
        """
        path = Path(path)
        try:
            return cls.load(path), path
        except (FileNotFoundError, CheckpointIntegrityError) as primary:
            prev = cls.previous_path(path)
            try:
                return cls.load(prev), prev
            except (FileNotFoundError, CheckpointIntegrityError):
                raise primary from None
