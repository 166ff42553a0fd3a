"""Deterministic fault injection, degradation and checkpointing.

The robustness layer of the engine: :class:`FaultProfile` configures
four seeded fault types (mobility-coupled departure, straggler timeout,
payload corruption, edge→cloud sync failure), :class:`SeededFaultModel`
draws them from named ``(step, edge)`` round streams so every
executor backend stays bit-identical, and :class:`TrainerCheckpoint`
makes long runs resumable with exact-history replay.  See DESIGN.md §8.
"""

from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    RESUMABLE_FIELDS,
    CheckpointIntegrityError,
    CheckpointMismatchError,
    TrainerCheckpoint,
    check_identity,
    run_identity,
)
from repro.faults.model import (
    FaultModel,
    SeededFaultModel,
    SyncOutcome,
    UploadFaults,
    make_fault_model,
)
from repro.faults.profile import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultProfile,
    resolve_fault_profile,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointIntegrityError",
    "CheckpointMismatchError",
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "FaultModel",
    "FaultProfile",
    "RESUMABLE_FIELDS",
    "SeededFaultModel",
    "SyncOutcome",
    "TrainerCheckpoint",
    "UploadFaults",
    "check_identity",
    "make_fault_model",
    "resolve_fault_profile",
    "run_identity",
]
