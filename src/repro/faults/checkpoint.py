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

A checkpoint names its run with one JSON record (:func:`run_identity`),
which a restore compares once (:func:`check_identity`).

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
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.topology import validate_pair
from repro.utils.serialization import (
    ArrayDecodeError,
    from_jsonable,
    to_jsonable,
)

#: Format marker so layout changes are detected on load.  v2 (the
#: topology layer) added the ``topology_state`` snapshot.  v3 (the
#: open-population layer) added the ``churn_state`` snapshot, the
#: ``stale_buffer`` of parked late uploads, the ``robustness_counters``
#: and the SHA-256 ``payload_sha256`` integrity checksum.  v4 stores
#: arrays as base64 raw bytes instead of decimal lists, and the MACH
#: tracker's state as columns instead of one dict per device.  v5
#: replaces the seed, sampler, topology and aggregation fingerprints
#: with the ``identity`` record.  Only the current version loads, and
#: only with its checksum.
CHECKPOINT_VERSION = 5

#: The run settings a resume may change: they decide how and where a
#: run executes and checkpoints, never what it computes.  The horizon is
#: not among them: the telecom trace depends on it.
RESUMABLE_FIELDS = ("executor", "num_workers", "checkpoint_every", "checkpoint_path")


class CheckpointIntegrityError(ValueError):
    """A checkpoint file is unreadable, truncated or fails its checksum."""


class CheckpointMismatchError(ValueError):
    """A checkpoint does not belong to the scenario that resumes it.

    ``field`` names the setting that differs: a key of the identity
    record (a scenario field such as ``"seed"`` or ``"num_edges"``,
    ``"sampler"`` or ``"data"``), or ``"model"`` for the model
    architecture, so a front end can name the option to change.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def run_identity(
    config: Any, sampler: str, data: str, num_edges: int
) -> Dict[str, Any]:
    """The identity record of one run, as JSON values.

    Every field of ``config`` (the run's ``ScenarioConfig``, or the
    ``HFLConfig`` of a trainer built without one) outside
    :data:`RESUMABLE_FIELDS`, with the aggregation strategy resolved;
    the sampler's name, the digest of the data and the edge count.
    """
    record = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in RESUMABLE_FIELDS
    }
    record["aggregation_strategy"] = validate_pair(
        config.topology, config.aggregation_strategy
    )
    record.update(num_edges=num_edges, sampler=sampler, data=data)
    return to_jsonable(
        {k: asdict(v) if is_dataclass(v) else v for k, v in record.items()}
    )


def check_identity(stored: Dict[str, Any], current: Dict[str, Any]) -> None:
    """Raise :class:`CheckpointMismatchError` on the first key where a
    checkpoint's identity record ``stored`` and the resuming run's
    ``current`` differ (in ``current``'s order, so a scenario field is
    named before the data it implies)."""
    for key in {**current, **stored}:
        if stored.get(key) != current.get(key):
            raise CheckpointMismatchError(
                key,
                f"checkpoint was written with {key}={stored.get(key)!r}, "
                f"this run has {key}={current.get(key)!r}",
            )


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
    step``.  ``identity`` is the run's :func:`run_identity` record, so
    a checkpoint cannot silently resume a different experiment.
    """

    step: int
    identity: Dict[str, Any]
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
    topology_state: Dict[str, Any] = field(default_factory=dict)
    #: Open-population snapshot (``None`` for a closed-world run).
    churn_state: Optional[Dict[str, Any]] = None
    #: Parked late uploads awaiting admission (see DESIGN.md §13).
    stale_buffer: List[Dict[str, Any]] = field(default_factory=list)
    #: Robustness accounting the trainer surfaces in its result
    #: (simulated backoff, late admits/drops, churn totals).
    robustness_counters: Dict[str, Any] = field(default_factory=dict)
    #: Adaptive-evaluation cursor (``None`` for fixed cadence): next due
    #: step, current interval, and the accuracy of the previous evaluation.
    eval_state: Optional[Dict[str, Any]] = None
    version: int = CHECKPOINT_VERSION

    def _body(self) -> Dict[str, Any]:
        """The JSON-safe payload without its checksum."""
        return to_jsonable({f.name: getattr(self, f.name) for f in fields(self)})

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
        required = {"version", "step", "identity", "edge_models", "cloud_model",
                    "last_synced_edge_models", "sampler_state"}
        # The version first: an older layout lacks some current keys.
        version = payload.get("version", CHECKPOINT_VERSION)
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        missing = required - set(payload)
        if missing:
            raise ValueError(f"checkpoint missing keys: {sorted(missing)}")
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
        if not isinstance(payload["identity"], dict):
            raise CheckpointIntegrityError(
                "checkpoint identity is not a JSON object"
            )
        try:
            decoded = from_jsonable(payload)
        except ArrayDecodeError as exc:
            raise CheckpointIntegrityError(
                f"checkpoint payload is malformed: {exc}"
            ) from None
        return cls(
            step=int(decoded["step"]),
            identity=payload["identity"],  # compared as JSON values
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
            topology_state=dict(decoded.get("topology_state") or {}),
            churn_state=decoded.get("churn_state"),
            stale_buffer=list(decoded.get("stale_buffer") or []),
            robustness_counters=dict(decoded.get("robustness_counters") or {}),
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
