"""Per-step telemetry for HFL runs.

A :class:`TelemetryRecorder` can be attached to
:class:`~repro.hfl.trainer.HFLTrainer` (it subscribes to the run's
:class:`repro.obs.Observability` handle) to capture, for every (step,
edge) round: the member set size, the sampling strategy's spread, the
realized participant count and the participants' gradient statistics.
The derived metrics — participation fairness, probability concentration
and per-edge load — power the ablation analyses and let downstream
users debug sampling strategies without touching the engine.

Under an active fault profile the recorder additionally tracks fault
counters per kind, the degraded rounds (rounds that lost at least one
sampled upload and aggregated over the survivors), and the edge→cloud
sync attempts with their simulated backoff.  The whole recorder state
round-trips through :meth:`TelemetryRecorder.state_dict` so checkpoint
resume reproduces the telemetry stream exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np


@dataclass(frozen=True)
class EdgeRoundRecord:
    """Telemetry for a single (time step, edge) training round."""

    t: int
    edge: int
    num_members: int
    num_participants: int
    prob_sum: float
    prob_max: float
    prob_min: float
    mean_grad_sq_norm: Optional[float]
    mean_loss: Optional[float]

    @classmethod
    def of_round(
        cls,
        t: int,
        edge: int,
        members: np.ndarray,
        probabilities: np.ndarray,
        participant_ids: List[int],
        grad_sq_norms: List[float],
        losses: List[float],
    ) -> "EdgeRoundRecord":
        """Summarize one finished round (the ``record_round`` arguments)."""
        if len(members) != len(probabilities):
            raise ValueError("members and probabilities must align")
        return cls(
            t=t,
            edge=edge,
            num_members=len(members),
            num_participants=len(participant_ids),
            prob_sum=float(np.sum(probabilities)) if len(probabilities) else 0.0,
            prob_max=float(np.max(probabilities)) if len(probabilities) else 0.0,
            prob_min=float(np.min(probabilities)) if len(probabilities) else 0.0,
            mean_grad_sq_norm=(
                float(np.mean(grad_sq_norms)) if grad_sq_norms else None
            ),
            mean_loss=float(np.mean(losses)) if losses else None,
        )

    @property
    def prob_spread(self) -> float:
        """max/min probability ratio (1.0 for uniform strategies).

        Contract for degenerate rounds:

        - no members, or every probability is zero (nobody samplable):
          ``1.0`` — the neutral "no spread" value, so empty rounds do
          not poison averaged diagnostics;
        - some member has zero probability while another is positive:
          ``inf`` — the strategy hard-excludes a member, which is an
          infinite concentration ratio by definition.  Aggregations
          over rounds must treat ``inf`` explicitly;
          :meth:`TelemetryRecorder.mean_prob_spread` skips such rounds
          and reports how many were skipped via
          :meth:`TelemetryRecorder.hard_exclusion_rounds`.
        """
        if self.num_members == 0 or self.prob_max <= 0:
            return 1.0
        if self.prob_min <= 0:
            return float("inf")
        return self.prob_max / self.prob_min


@dataclass(frozen=True)
class DegradedRoundRecord:
    """A round that lost at least one sampled upload to a fault."""

    t: int
    edge: int
    #: Devices whose participation indicator was 1 (pre-fault).
    num_sampled: int
    #: Sampled uploads lost, by fault kind.
    failures: Dict[str, int]

    @property
    def num_failed(self) -> int:
        return sum(self.failures.values())

    @property
    def lost_everyone(self) -> bool:
        """The round lost every sampled upload (edge kept its model)."""
        return self.num_failed == self.num_sampled


@dataclass(frozen=True)
class ChurnRecord:
    """One step's population change (open-population churn)."""

    t: int
    #: Devices that enrolled this step.
    joined: List[int]
    #: Devices that de-enrolled this step.
    left: List[int]
    #: Active-set size after the transition.
    num_active: int


@dataclass(frozen=True)
class LateAdmitRecord:
    """A parked straggler upload admitted into a later aggregate."""

    t: int
    edge: int
    device: int
    #: The round the upload was computed in.
    born_step: int
    #: ``t - born_step``, bounded by the configured ``max_staleness``.
    age: int
    #: Age-discount factor applied to the upload's IPW weight.
    scale: float


@dataclass(frozen=True)
class LateDropRecord:
    """A parked upload discarded at admission time.

    The only drop reason today is churn: the device de-enrolled while
    its upload sat in the staleness buffer (the mid-round-departure ×
    late-admit interaction).
    """

    t: int
    edge: int
    device: int
    born_step: int
    age: int


@dataclass(frozen=True)
class SyncAttemptRecord:
    """One edge's edge→cloud attempt sequence at a sync step."""

    t: int
    edge: int
    failed_attempts: int
    #: All retries failed; the cloud used the edge's stale model.
    used_stale: bool
    #: Simulated exponential-backoff seconds spent on the failures.
    backoff_seconds: float


class TelemetryRecorder:
    """Collects per-round records and computes summary diagnostics."""

    def __init__(self) -> None:
        self.records: List[EdgeRoundRecord] = []
        self._participation: Dict[int, int] = {}
        self.fault_counts: Dict[str, int] = {}
        self.degraded_rounds: List[DegradedRoundRecord] = []
        self.sync_attempts: List[SyncAttemptRecord] = []
        #: Open-population churn and bounded-staleness streams — kept
        #: outside ``fault_counts`` on purpose: churn and late admits
        #: are population dynamics, not injected faults, and mixing the
        #: keys would change every existing fault summary.
        self.churn_records: List[ChurnRecord] = []
        self.late_admits: List[LateAdmitRecord] = []
        self.late_drops: List[LateDropRecord] = []
        #: Accumulated wall-clock seconds per engine phase (plan /
        #: execute / finish / sync / eval) — see :meth:`record_phase`.
        self.phase_seconds: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}

    # -- hooks called by the trainer ---------------------------------------

    def record_round(
        self,
        t: int,
        edge: int,
        members: np.ndarray,
        probabilities: np.ndarray,
        participant_ids: List[int],
        grad_sq_norms: List[float],
        losses: List[float],
    ) -> None:
        self.records.append(
            EdgeRoundRecord.of_round(
                t, edge, members, probabilities, participant_ids,
                grad_sq_norms, losses,
            )
        )
        for device in participant_ids:
            self._participation[device] = self._participation.get(device, 0) + 1

    def record_faults(
        self, t: int, edge: int, failures: Mapping[int, str], num_sampled: int
    ) -> None:
        """Record one degraded round: ``failures`` maps device → fault kind."""
        if not failures:
            return
        by_kind: Dict[str, int] = {}
        for kind in failures.values():
            by_kind[kind] = by_kind.get(kind, 0) + 1
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        self.degraded_rounds.append(
            DegradedRoundRecord(
                t=t, edge=edge, num_sampled=num_sampled, failures=by_kind
            )
        )

    def record_sync_attempt(
        self,
        t: int,
        edge: int,
        failed_attempts: int,
        used_stale: bool,
        backoff_seconds: float,
    ) -> None:
        """Record one edge's edge→cloud attempt sequence (failures only)."""
        self.sync_attempts.append(
            SyncAttemptRecord(
                t=t,
                edge=edge,
                failed_attempts=failed_attempts,
                used_stale=used_stale,
                backoff_seconds=backoff_seconds,
            )
        )
        if failed_attempts > 0:
            self.fault_counts["sync_failure"] = (
                self.fault_counts.get("sync_failure", 0) + failed_attempts
            )
        if used_stale:
            self.fault_counts["stale_sync"] = (
                self.fault_counts.get("stale_sync", 0) + 1
            )

    def record_churn(
        self, t: int, joined: List[int], left: List[int], num_active: int
    ) -> None:
        """Record one step's population change (no-op when nothing moved)."""
        if not joined and not left:
            return
        self.churn_records.append(
            ChurnRecord(
                t=t,
                joined=[int(m) for m in joined],
                left=[int(m) for m in left],
                num_active=int(num_active),
            )
        )

    def record_late_admit(
        self, t: int, edge: int, device: int, born_step: int, age: int,
        scale: float,
    ) -> None:
        """Record a parked upload admitted with an age-discounted weight."""
        self.late_admits.append(
            LateAdmitRecord(
                t=t, edge=edge, device=device, born_step=born_step,
                age=age, scale=scale,
            )
        )

    def record_late_drop(
        self, t: int, edge: int, device: int, born_step: int, age: int
    ) -> None:
        """Record a parked upload discarded at admission (device gone)."""
        self.late_drops.append(
            LateDropRecord(
                t=t, edge=edge, device=device, born_step=born_step, age=age
            )
        )

    def record_phase(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock time spent in one engine phase.

        The observability handle calls this once per timed phase (plan /
        execute / finish every step; sync / eval / checkpoint when they
        run).  Phase timings are host-specific observability, *not* part
        of the deterministic run record: they are deliberately excluded
        from :meth:`state_dict`, so a resumed run's telemetry stream
        still compares equal to an uninterrupted one bit for bit.
        """
        if seconds < 0:
            raise ValueError(f"phase seconds must be >= 0, got {seconds}")
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1

    # -- summaries ----------------------------------------------------------

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-phase totals: seconds, call count and share of the total.

        The shares answer the first profiling question — *where does a
        time step go?* — without an external profiler.
        """
        total = sum(self.phase_seconds.values())
        return {
            phase: {
                "seconds": seconds,
                "calls": float(self.phase_calls.get(phase, 0)),
                "share": (seconds / total) if total > 0 else 0.0,
            }
            for phase, seconds in sorted(self.phase_seconds.items())
        }

    def participation_counts(self) -> Dict[int, int]:
        return dict(self._participation)

    def jain_fairness(self) -> float:
        """Jain's fairness index of per-device participation counts.

        1.0 means perfectly even participation; 1/n means one device
        absorbed everything.  Uniform sampling should score high; a
        sharply biased strategy lower.
        """
        counts = np.array(list(self._participation.values()), dtype=float)
        if counts.size == 0 or counts.sum() == 0:
            return 1.0
        return float(counts.sum() ** 2 / (counts.size * np.sum(counts**2)))

    def mean_prob_spread(self) -> float:
        """Average max/min probability ratio across recorded rounds.

        Rounds whose spread is ``inf`` (a member hard-excluded with
        zero probability — see :attr:`EdgeRoundRecord.prob_spread`) are
        skipped here; count them via :meth:`hard_exclusion_rounds`.
        """
        spreads = [
            r.prob_spread
            for r in self.records
            if r.num_members > 0 and np.isfinite(r.prob_spread)
        ]
        if not spreads:
            return 1.0
        return float(np.mean(spreads))

    def hard_exclusion_rounds(self) -> int:
        """Rounds where the strategy gave some member zero probability
        while sampling others (``prob_spread == inf``)."""
        return sum(1 for r in self.records if np.isinf(r.prob_spread))

    def edge_load(self) -> Dict[int, float]:
        """Mean participants per round for each edge."""
        totals: Dict[int, List[int]] = {}
        for record in self.records:
            totals.setdefault(record.edge, []).append(record.num_participants)
        return {edge: float(np.mean(v)) for edge, v in totals.items()}

    def capacity_violations(self, tolerance: float = 1e-9) -> int:
        """Rounds whose probability mass exceeded the recorded budget.

        The trainer clips probabilities into [0, 1], so ``prob_sum``
        bounded by the member count is structural; this counts rounds
        where Σq exceeded the number of members (impossible) as a
        self-check and is expected to return 0.
        """
        return sum(
            1
            for r in self.records
            if r.prob_sum > r.num_members + tolerance
        )

    def loss_series(self) -> List[float]:
        """Mean participant loss per recorded round (None rounds skipped)."""
        return [r.mean_loss for r in self.records if r.mean_loss is not None]

    def fault_summary(self) -> Dict[str, int]:
        """Total fault events by kind (empty for a fault-free run)."""
        return dict(self.fault_counts)

    def lost_round_count(self) -> int:
        """Rounds where every sampled upload failed (edge kept its model)."""
        return sum(1 for r in self.degraded_rounds if r.lost_everyone)

    def stale_sync_count(self) -> int:
        """Sync steps where an edge exhausted its retries and the cloud
        fell back to that edge's last successfully synced model."""
        return sum(1 for r in self.sync_attempts if r.used_stale)

    def simulated_backoff_seconds(self) -> float:
        """Total simulated edge→cloud retry backoff across the run."""
        return float(sum(r.backoff_seconds for r in self.sync_attempts))

    def devices_joined(self) -> int:
        """Total churn arrivals across the run."""
        return sum(len(r.joined) for r in self.churn_records)

    def devices_left(self) -> int:
        """Total churn departures across the run."""
        return sum(len(r.left) for r in self.churn_records)

    def late_admit_count(self) -> int:
        """Parked straggler uploads that made it into an aggregate."""
        return len(self.late_admits)

    def late_drop_count(self) -> int:
        """Parked uploads discarded because the device de-enrolled."""
        return len(self.late_drops)

    def mean_admitted_age(self) -> Optional[float]:
        """Mean staleness age of the admitted late uploads (None if none)."""
        if not self.late_admits:
            return None
        return float(np.mean([r.age for r in self.late_admits]))

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-compatible snapshot of the full telemetry stream.

        Phase wall-times (:meth:`record_phase`) are intentionally *not*
        part of the snapshot: they measure the host, not the run, and
        including them would break the exact-equality contract between
        a resumed and an uninterrupted run's telemetry state.
        """
        return {
            "records": [asdict(r) for r in self.records],
            "participation": {str(k): v for k, v in self._participation.items()},
            "fault_counts": dict(self.fault_counts),
            "degraded_rounds": [asdict(r) for r in self.degraded_rounds],
            "sync_attempts": [asdict(r) for r in self.sync_attempts],
            "churn_records": [asdict(r) for r in self.churn_records],
            "late_admits": [asdict(r) for r in self.late_admits],
            "late_drops": [asdict(r) for r in self.late_drops],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output, replacing current contents.

        Phase timings are cleared too: they are excluded from
        :meth:`state_dict` (host observability, not run state), so a
        recorder reused across a resume must not report the pre-restore
        accumulations as if they belonged to the restored run.
        """
        self.phase_seconds = {}
        self.phase_calls = {}
        self.records = [EdgeRoundRecord(**r) for r in state.get("records", [])]
        self._participation = {
            int(k): int(v) for k, v in state.get("participation", {}).items()
        }
        self.fault_counts = {
            str(k): int(v) for k, v in state.get("fault_counts", {}).items()
        }
        self.degraded_rounds = [
            DegradedRoundRecord(
                t=r["t"],
                edge=r["edge"],
                num_sampled=r["num_sampled"],
                failures={str(k): int(v) for k, v in r["failures"].items()},
            )
            for r in state.get("degraded_rounds", [])
        ]
        self.sync_attempts = [
            SyncAttemptRecord(**r) for r in state.get("sync_attempts", [])
        ]
        # .get defaults keep pre-churn telemetry snapshots loadable.
        self.churn_records = [
            ChurnRecord(
                t=int(r["t"]),
                joined=[int(m) for m in r["joined"]],
                left=[int(m) for m in r["left"]],
                num_active=int(r["num_active"]),
            )
            for r in state.get("churn_records", [])
        ]
        self.late_admits = [
            LateAdmitRecord(**r) for r in state.get("late_admits", [])
        ]
        self.late_drops = [
            LateDropRecord(**r) for r in state.get("late_drops", [])
        ]
