"""Algorithm 2 read literally, one device at a time: the oracle that
:class:`repro.core.experience.ExperienceTracker` must match bit for bit.

The tracker keeps the whole population in columnar arrays and refreshes
estimates lazily; this scalar class keeps each device's buffer,
window and lifetime bests, participation count and synced estimate in
plain attributes, with the state dict the tracker's columns encode.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.experience import WINDOW_MODES
from repro.utils.validation import check_membership


class DeviceExperience:
    """Per-device state of Algorithm 2, one Python object per device."""

    def __init__(self, device_id: int, window: str = "recent") -> None:
        check_membership("window", window, WINDOW_MODES)
        self.device_id = device_id
        self.window = window
        #: Gradient experience buffer G^t_m (squared norms since last sync).
        self.buffer: List[float] = []
        #: Max over participated-step buffer averages in the current window.
        self.window_best: float = 0.0
        #: Whether the device participated at least once this window.
        self.window_participated: bool = False
        #: Lifetime max over participated-step buffer averages (term A,
        #: literal Eq. (15) reading).
        self.lifetime_best: float = 0.0
        #: Total participation count Σ_{t'} 1^{t'}_{m,n}.
        self.participation_count: int = 0
        #: Latest exploitation value carried across syncs.
        self._exploit: Optional[float] = None
        #: Latest full UCB estimate G̃²_m (None until first computable).
        self._estimate: Optional[float] = None

    def record(self, grad_sq_norms: Sequence[float]) -> None:
        """Fold one participated step's local gradients into the buffer.

        Implements Eq. (14) followed by the in-place update of the
        exploitation term's running maximum.
        """
        norms = [float(g) for g in grad_sq_norms]
        if not norms:
            raise ValueError("a participated step must report >= 1 gradient norm")
        if any(g < 0 for g in norms):
            raise ValueError("squared gradient norms must be non-negative")
        self.buffer.extend(norms)
        self.participation_count += 1
        running_average = float(np.mean(self.buffer))
        self.window_best = max(self.window_best, running_average)
        self.window_participated = True
        self.lifetime_best = max(self.lifetime_best, running_average)

    def record_failure(self) -> None:
        """A sampled-but-failed step: the device was tried but uploaded
        nothing.

        Counts toward Σ 1^{t'}_{m,n} — shrinking the exploration bonus
        — while leaving the exploitation term untouched, so a device
        that keeps failing drifts down the UCB ranking: the estimator
        learns device *reliability* alongside gradient magnitude.
        """
        self.participation_count += 1

    def exploration_bonus(self, t: int) -> float:
        """Term B of Eq. (15); infinite when the device was never sampled."""
        if self.participation_count == 0:
            return math.inf
        return math.sqrt(math.log(t + 1) / self.participation_count)

    def _exploitation(self) -> float:
        """Term A under the configured window mode."""
        if self.window == "lifetime":
            return self.lifetime_best
        if self.window_participated:
            return self.window_best
        # No participation this window: carry the previous estimate.
        return self._exploit if self._exploit is not None else 0.0

    def ucb_estimate(self, t: int) -> float:
        """The full Eq. (15) score at communication step ``t``."""
        return self._exploitation() + self.exploration_bonus(t)

    def sync(self, t: int) -> float:
        """Algorithm 2 lines 2–4: refresh G̃²_m and clear the buffer."""
        self._exploit = self._exploitation()
        self._estimate = self._exploit + self.exploration_bonus(t)
        self.buffer = []
        self.window_best = 0.0
        self.window_participated = False
        return self._estimate

    @property
    def estimate(self) -> float:
        """Latest synced G̃²_m; infinite before the device is ever estimated."""
        if self._estimate is None:
            return math.inf
        return self._estimate

    def audit_components(self) -> "tuple[float, float, float]":
        """The latest synced ``(empirical, bonus, estimate)`` decomposition.

        ``empirical`` is the Eq. (15) exploitation term at the last
        sync (0.0 before any sync), ``bonus`` the exploration term
        (recovered exactly as ``estimate − empirical`` since the sync
        computed ``estimate = empirical + bonus``; infinite while the
        device was never estimated), ``estimate`` the G̃²_m the edge
        strategy consumes.  Read-only — used by the MACH decision audit
        trail (:mod:`repro.obs.audit`).
        """
        empirical = self._exploit if self._exploit is not None else 0.0
        estimate = self.estimate
        bonus = estimate - empirical if math.isfinite(estimate) else math.inf
        return empirical, bonus, estimate

    def state_dict(self) -> dict:
        """JSON-compatible snapshot of the Algorithm-2 state."""
        return {
            "buffer": list(self.buffer),
            "window_best": self.window_best,
            "window_participated": self.window_participated,
            "lifetime_best": self.lifetime_best,
            "participation_count": self.participation_count,
            "exploit": self._exploit,
            "estimate": self._estimate,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output."""
        self.buffer = [float(g) for g in state["buffer"]]
        self.window_best = float(state["window_best"])
        self.window_participated = bool(state["window_participated"])
        self.lifetime_best = float(state["lifetime_best"])
        self.participation_count = int(state["participation_count"])
        self._exploit = None if state["exploit"] is None else float(state["exploit"])
        self._estimate = (
            None if state["estimate"] is None else float(state["estimate"])
        )
