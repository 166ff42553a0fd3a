"""Seeded fault injection for the HFL engine.

A :class:`FaultModel` is consulted by :class:`repro.hfl.trainer
.HFLTrainer` during the *finish* phase of every round (upload faults)
and at every edge→cloud communication step (sync faults).  All fault
decisions are made trainer-side, after the executor barrier, so the
:mod:`repro.runtime` backends never see faults and their bit-identical
determinism contract is untouched.

Determinism contract: every draw of :class:`SeededFaultModel` comes
from a :class:`~repro.utils.rng.SeedSequenceFactory` named stream of a
child factory of the trainer's master seed, keyed by coordinates the
trainer holds after the barrier.  An edge round's uploads share one
stream, ``round_generator(step, edge, "fault/upload")``: the round's
sampled devices are taken in ascending id order, and the model first
draws a fixed-shape block — a departure, a dropout and a corruption
uniform per device, then one lognormal straggler jitter per device —
and only then the NaN/±Inf bursts of the corrupted survivors.  How much
of the stream the block consumes never depends on an outcome.  A sync
step draws from its own ``(step, edge, "fault/sync")`` stream.
Decisions therefore depend only on the master seed and the fault
profile — never on executor backend, worker count or completion order
— and serial and process runs stay bit-identical under any profile.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.profile import FaultProfile
from repro.hfl.latency import LatencySimulator
from repro.utils.rng import SeedSequenceFactory


@dataclass(frozen=True)
class SyncOutcome:
    """Result of one edge's edge→cloud aggregation attempt sequence."""

    #: Attempts that failed before success (or before giving up).
    failed_attempts: int
    #: Whether an attempt eventually succeeded within the retry budget.
    success: bool
    #: Total simulated exponential-backoff wait across the failures.
    backoff_seconds: float


@dataclass(frozen=True)
class UploadFaults:
    """One edge round's upload-fault decisions."""

    #: Device → fault kind (``"departure"`` or ``"straggler"``) of every
    #: upload that misses the round, in ascending device order.
    lost: Dict[int, str]
    #: Device → ``(positions, values)`` of the NaN/±Inf burst written
    #: into a surviving upload's payload, in ascending device order.
    bursts: Dict[int, Tuple[np.ndarray, np.ndarray]]


class FaultModel(ABC):
    """Decides, per round, which uploads fail and which syncs fail."""

    name: str = "faults"

    def describe(self) -> dict:
        """JSON-compatible description for the run manifest.

        The observability event log records this in its header so an
        archived run is self-describing: which fault model ran, with
        which knobs.  Subclasses should extend the base payload.
        """
        return {"name": self.name}

    def bind(self, num_devices: int, seeds: SeedSequenceFactory) -> None:
        """Attach the population size and the trainer's seed factory.

        Called once by the trainer before training (and again on
        resume); implementations must derive all randomness from
        ``seeds`` to preserve the determinism contract.
        """

    @abstractmethod
    def upload_faults(
        self,
        step: int,
        edge: int,
        devices: np.ndarray,
        departed: np.ndarray,
        num_concurrent: int,
        payload_size: int,
    ) -> UploadFaults:
        """The fate of one edge round's uploads.

        ``devices`` are the round's sampled devices in ascending id
        order; ``departed[i]`` flags a device that was inside the edge
        at the plan phase but outside it at the finish phase
        (mobility-coupled departure); ``num_concurrent`` is the round's
        participant count (sharing the uplink, for the straggler
        deadline) and ``payload_size`` the length of each flat upload.
        """

    @abstractmethod
    def sync_outcome(self, step: int, edge: int) -> SyncOutcome:
        """Outcome of the edge→cloud attempt sequence at a sync step."""


#: Values a corruption burst writes into a payload.
_BAD_VALUES = [np.nan, np.inf, -np.inf]
#: An upload's fate code: lands, lost to a departure, or late.
_LOST_KINDS = (None, "departure", "straggler")


class SeededFaultModel(FaultModel):
    """The reference implementation: profile rates, named-stream draws."""

    name = "seeded"

    def __init__(self, profile: FaultProfile) -> None:
        if not isinstance(profile, FaultProfile):
            raise TypeError(
                f"expected FaultProfile, got {type(profile).__name__}"
            )
        self.profile = profile
        self._seeds: Optional[SeedSequenceFactory] = None
        self._latency: Optional[LatencySimulator] = None

    def describe(self) -> dict:
        from dataclasses import asdict

        return {"name": self.name, "profile": asdict(self.profile)}

    def bind(self, num_devices: int, seeds: SeedSequenceFactory) -> None:
        # A child factory keeps fault streams disjoint from every engine
        # stream (participation draws, work items, probes) by construction.
        self._seeds = seeds.child("faults")
        if self.profile.straggler_deadline_seconds is not None:
            self._latency = LatencySimulator(
                num_devices,
                self.profile.latency,
                rng=self._seeds.generator("device-speeds"),
            )

    def _rng(self, step: int, edge: int, role: str) -> np.random.Generator:
        if self._seeds is None:
            raise RuntimeError("bind() must be called before drawing faults")
        return self._seeds.round_generator(step, edge, role)

    # -- upload-phase faults -------------------------------------------------

    def upload_faults(
        self,
        step: int,
        edge: int,
        devices: np.ndarray,
        departed: np.ndarray,
        num_concurrent: int,
        payload_size: int,
    ) -> UploadFaults:
        profile = self.profile
        rng = self._rng(step, edge, "fault/upload")
        # The fixed-shape block: a departure, a dropout and a corruption
        # uniform per device, then one lognormal jitter per device.
        uniforms = rng.random((devices.size, 3))
        jitter = rng.lognormal(0.0, profile.straggler_jitter_sigma, devices.size)
        departs = departed & (uniforms[:, 0] < profile.mobility_departure_rate)
        lost = departs | (uniforms[:, 1] < profile.dropout_rate)
        late = ~lost & self._late(devices, jitter, num_concurrent)
        corrupted = ~lost & ~late & (uniforms[:, 2] < profile.corruption_rate)
        fates = lost + 2 * late  # an index into _LOST_KINDS
        # Then, only for the corrupted survivors, their bursts: one bad
        # burst rather than a fully garbled payload, the harder case
        # for detection.
        num_bad = max(1, payload_size // 1024)
        return UploadFaults(
            lost={
                m: _LOST_KINDS[fate]
                for m, fate in zip(devices.tolist(), fates.tolist())
                if fate
            },
            bursts={
                m: (
                    rng.integers(0, payload_size, size=num_bad),
                    rng.choice(_BAD_VALUES, size=num_bad),
                )
                for m in devices[corrupted].tolist()
            },
        )

    def _late(
        self, devices: np.ndarray, jitter: np.ndarray, num_concurrent: int
    ) -> np.ndarray:
        """Which devices miss the straggler deadline."""
        deadline = self.profile.straggler_deadline_seconds
        if deadline is None or self._latency is None:
            return np.zeros(devices.size, dtype=bool)
        latency = self._latency
        elapsed = (
            latency.config.compute_seconds_per_step / latency.speeds[devices]
        ) * jitter
        elapsed += latency.upload_seconds(max(num_concurrent, 1))
        return elapsed > deadline

    # -- sync-phase faults ---------------------------------------------------

    def sync_outcome(self, step: int, edge: int) -> SyncOutcome:
        profile = self.profile
        if profile.sync_failure_rate <= 0:
            return SyncOutcome(failed_attempts=0, success=True, backoff_seconds=0.0)
        rng = self._rng(step, edge, "fault/sync")
        # One initial attempt plus the bounded retries; a single vector
        # draw keeps the stream consumption independent of the outcome.
        draws = rng.random(profile.max_sync_retries + 1)
        failed = 0
        for d in draws:
            if d < profile.sync_failure_rate:
                failed += 1
            else:
                break
        success = failed <= profile.max_sync_retries
        return SyncOutcome(
            failed_attempts=failed,
            success=success,
            backoff_seconds=profile.backoff_seconds(failed),
        )


def make_fault_model(
    profile: "Optional[FaultProfile]",
) -> Optional[FaultModel]:
    """A :class:`SeededFaultModel` for an active profile, else ``None``."""
    if profile is None or not profile.active:
        return None
    return SeededFaultModel(profile)
