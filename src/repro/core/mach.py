"""The MACH sampler: Algorithm 1's sampling side, pluggable into the trainer.

MACH composes the two components of §III-B:

- **experience updating** (:class:`repro.core.experience.ExperienceTracker`):
  each sampled device appends its local squared gradient norms to its
  experience buffer (Eq. (14)); at every edge-to-cloud communication the
  UCB scores G̃²_m are refreshed (Eq. (15)) and buffers cleared;
- **edge sampling** (:func:`repro.core.edge_sampling.edge_strategy`):
  each edge independently converts the G̃²_m of its current members into
  the strategy Q^t_n (Eqs. (16)–(18)).

The sampler needs no prior knowledge of device data statistics — only
the gradient norms of devices it actually sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.edge_sampling import EdgeSamplingConfig, edge_strategy
from repro.core.experience import ExperienceTracker
from repro.sampling.base import DeviceProfile, Sampler


@dataclass(frozen=True)
class MACHConfig:
    """Hyper-parameters of MACH.

    ``edge_sampling`` carries the α/β transfer-function coefficients of
    Eq. (17) and the warmup ramp; ``sync_interval`` must match the HFL
    trainer's T_g so that UCB refreshes happen on the Algorithm-2 clock
    (``t mod T_g == 0``).
    """

    edge_sampling: EdgeSamplingConfig = field(default_factory=EdgeSamplingConfig)
    sync_interval: int = 5
    #: Exploitation-window mode of the UCB estimator ("recent" adapts to
    #: the current inter-sync window; "lifetime" is the literal Eq. (15)
    #: all-history max — see repro.core.experience).
    ucb_window: str = "recent"
    #: Candidate-selection mode: "full" runs the Eq. (16)–(18) strategy
    #: over every current member (exact paper behavior); "topk"
    #: prescreens the members with an ``argpartition`` over their UCB
    #: scores and runs the strategy only on the top candidates, so the
    #: per-edge strategy cost tracks channel capacity instead of edge
    #: population.  Never-estimated devices carry infinite scores and
    #: are prescreened first, preserving UCB's try-everyone pressure.
    selection: str = "full"
    #: Candidate-pool size as a multiple of the edge capacity K_n
    #: (only read in "topk" mode).
    candidate_factor: float = 4.0
    #: Pool floor so tiny capacities still explore a sane set.
    min_candidates: int = 32

    def __post_init__(self) -> None:
        if self.sync_interval <= 0:
            raise ValueError(
                f"sync_interval must be positive, got {self.sync_interval}"
            )
        if self.selection not in ("full", "topk"):
            raise ValueError(
                f"selection must be 'full' or 'topk', got {self.selection!r}"
            )
        if self.candidate_factor <= 0:
            raise ValueError(
                f"candidate_factor must be positive, got {self.candidate_factor}"
            )
        if self.min_candidates <= 0:
            raise ValueError(
                f"min_candidates must be positive, got {self.min_candidates}"
            )


class MACHSampler(Sampler):
    """Mobility-Aware deviCe sampling in Hierarchical federated learning."""

    name = "mach"

    def __init__(self, config: Optional[MACHConfig] = None) -> None:
        self.config = config if config is not None else MACHConfig()
        self._tracker: Optional[ExperienceTracker] = None

    @property
    def tracker(self) -> ExperienceTracker:
        if self._tracker is None:
            raise RuntimeError("setup() must be called before use")
        return self._tracker

    def setup(self, profiles: Sequence[DeviceProfile], num_edges: int) -> None:
        if not profiles:
            raise ValueError("profiles is empty")
        num_devices = max(p.device_id for p in profiles) + 1
        self._tracker = ExperienceTracker(num_devices, window=self.config.ucb_window)

    def probabilities(
        self, t: int, edge: int, device_indices: np.ndarray, capacity: float
    ) -> np.ndarray:
        """Algorithm 1 line 3: Q^t_n ← EdgeSampling({G̃²_m | m ∈ M^t_n}).

        ``device_indices`` is consumed as the ndarray the trainer builds
        — no Python-list round trip — and indexes the SoA tracker
        directly.  In ``topk`` mode the strategy itself only sees the
        prescreened candidate pool; non-candidates get probability 0.
        """
        if len(device_indices) == 0:
            return np.zeros(0)
        estimates = self.tracker.estimates(device_indices)
        pool = self._candidate_pool_size(capacity)
        if self.config.selection == "topk" and pool < estimates.size:
            # O(members) partition instead of the O(members log members)
            # strategy-side sort; infinite (never-estimated) scores are
            # prescreened first.  Partition order is deterministic for a
            # fixed input, so runs and resumes replay exactly.
            candidates = np.argpartition(-estimates, pool - 1)[:pool]
            candidates.sort()
            probabilities = np.zeros(estimates.size)
            probabilities[candidates] = edge_strategy(
                estimates[candidates],
                capacity,
                self.config.edge_sampling,
                t=t,
            )
            return probabilities
        return edge_strategy(estimates, capacity, self.config.edge_sampling, t=t)

    def _candidate_pool_size(self, capacity: float) -> int:
        """Top-k pool size implied by the edge capacity."""
        return max(
            self.config.min_candidates,
            int(math.ceil(self.config.candidate_factor * capacity)),
        )

    def observe_participation(
        self,
        t: int,
        device: int,
        grad_sq_norms: Sequence[float],
        mean_loss: float,
    ) -> None:
        """Algorithm 1 line 10 / Algorithm 2 line 1: buffer the experience."""
        self.tracker.record(device, grad_sq_norms)

    def observe_failure(self, t: int, device: int) -> None:
        """A sampled device failed to upload: count the attempt so the
        UCB exploration bonus shrinks without any exploitation credit —
        the estimator learns device reliability (see
        :meth:`repro.core.experience.ExperienceTracker.record_failure`)."""
        self.tracker.record_failure(device)

    def on_global_sync(self, t: int) -> None:
        """Algorithm 2 lines 2–4: refresh every G̃²_m, clear buffers."""
        self.tracker.sync_all(t)

    def on_device_joined(self, t: int, device: int) -> None:
        """Warm-start an arrival with prior-mean UCB state.

        Open-population churn support: a never-tried arrival is seeded
        as one pseudo-trial at the population's mean exploitation value
        (see :meth:`repro.core.experience.ExperienceTracker
        .initialize_arrival`); a returning device keeps its learned
        state and departures (the trainer excludes them from member
        sets) need no hook at all.
        """
        self.tracker.initialize_arrival(device, t)

    def audit_components(self, device_indices) -> dict:
        """Eq. (15) decomposition per candidate, for the audit trail."""
        return self.tracker.audit_components(device_indices)

    def state_dict(self) -> dict:
        return {"tracker": self.tracker.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        tracker_state = state.get("tracker")
        if not isinstance(tracker_state, dict):
            raise ValueError("checkpoint MACH sampler state has no tracker")
        self.tracker.load_state_dict(tracker_state)
