"""Seeded fault injection for the HFL engine.

A :class:`FaultModel` is consulted by :class:`repro.hfl.trainer
.HFLTrainer` during the *finish* phase of every round (upload faults)
and at every edge→cloud communication step (sync faults).  All fault
decisions are made trainer-side, after the executor barrier, so the
:mod:`repro.runtime` backends never see faults and their bit-identical
determinism contract is untouched.

Determinism contract: every draw of :class:`SeededFaultModel` comes
from a :class:`~repro.utils.rng.SeedSequenceFactory` named stream keyed
by ``(step, edge, device)`` (plus the fault kind), derived from a child
factory of the trainer's master seed.  Decisions therefore depend only
on the master seed and the fault profile — never on executor backend,
worker count or completion order — and serial and process runs stay
bit-identical under any profile.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

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
    def upload_fault(
        self,
        step: int,
        edge: int,
        device: int,
        departed: bool,
        num_concurrent: int,
    ) -> Optional[str]:
        """Fault kind lost in transit, or ``None`` when the upload lands.

        ``departed`` flags a device that was inside the edge at the plan
        phase but outside it at the finish phase (mobility-coupled
        departure); ``num_concurrent`` is the round's participant count
        (sharing the uplink, for the straggler deadline).
        """

    @abstractmethod
    def corrupt_payload(
        self, step: int, edge: int, device: int, payload: np.ndarray
    ) -> Optional[np.ndarray]:
        """A corrupted copy of ``payload``, or ``None`` when intact."""

    @abstractmethod
    def sync_outcome(self, step: int, edge: int) -> SyncOutcome:
        """Outcome of the edge→cloud attempt sequence at a sync step."""


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

    def upload_fault(
        self,
        step: int,
        edge: int,
        device: int,
        departed: bool,
        num_concurrent: int,
    ) -> Optional[str]:
        profile = self.profile
        if departed and profile.mobility_departure_rate > 0:
            rng = self._rng(step, edge, f"fault/departure/{device}")
            if rng.random() < profile.mobility_departure_rate:
                return "departure"
        if profile.dropout_rate > 0:
            rng = self._rng(step, edge, f"fault/dropout/{device}")
            if rng.random() < profile.dropout_rate:
                return "departure"
        if self._is_straggler(step, edge, device, num_concurrent):
            return "straggler"
        return None

    def _is_straggler(
        self, step: int, edge: int, device: int, num_concurrent: int
    ) -> bool:
        deadline = self.profile.straggler_deadline_seconds
        if deadline is None or self._latency is None:
            return False
        jitter = 1.0
        if self.profile.straggler_jitter_sigma > 0:
            rng = self._rng(step, edge, f"fault/straggler/{device}")
            jitter = rng.lognormal(0.0, self.profile.straggler_jitter_sigma)
        elapsed = self._latency.compute_seconds(device) * jitter
        elapsed += self._latency.upload_seconds(max(num_concurrent, 1))
        return elapsed > deadline

    def corrupt_payload(
        self, step: int, edge: int, device: int, payload: np.ndarray
    ) -> Optional[np.ndarray]:
        if self.profile.corruption_rate <= 0:
            return None
        rng = self._rng(step, edge, f"fault/corruption/{device}")
        if rng.random() >= self.profile.corruption_rate:
            return None
        corrupted = np.array(payload, dtype=float, copy=True)
        # Flip a sparse set of coordinates to NaN/±Inf — one bad burst,
        # not a fully garbled payload, the harder case for detection.
        num_bad = max(1, corrupted.size // 1024)
        positions = rng.integers(0, corrupted.size, size=num_bad)
        values = rng.choice([np.nan, np.inf, -np.inf], size=num_bad)
        corrupted[positions] = values
        return corrupted

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
