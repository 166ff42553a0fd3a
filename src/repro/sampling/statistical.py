"""Statistical-utility sampling, after Oort [39] and Cho et al. [14].

Devices whose recent training signals indicate higher statistical
utility (larger local loss / gradient contribution) are preferred.  We
track an exponential moving average of each device's observed mean
local loss — Oort's statistical utility reduces to exactly this under
equal local dataset sizes — and sample proportionally to it within the
edge.  Devices never observed yet receive the population-mean utility,
giving a mild implicit exploration without MACH's explicit UCB bonus.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sampling.base import DeviceProfile, Sampler, capped_proportional_probabilities
from repro.utils.validation import check_fraction, check_state_array


class StatisticalSampler(Sampler):
    """EMA-of-loss proportional sampling (exploitation-only baseline).

    Parameters
    ----------
    decay:
        EMA decay for the utility estimate; 0 keeps only the newest
        observation, values near 1 average over a long history.
    """

    name = "statistical"

    def __init__(self, decay: float = 0.5) -> None:
        check_fraction("decay", decay)
        self.decay = decay
        self._utility: Optional[np.ndarray] = None
        self._seen: Optional[np.ndarray] = None

    def setup(self, profiles: Sequence[DeviceProfile], num_edges: int) -> None:
        if not profiles:
            raise ValueError("profiles is empty")
        size = max(p.device_id for p in profiles) + 1
        self._utility = np.zeros(size)
        self._seen = np.zeros(size, dtype=bool)

    def _mean_seen_utility(self) -> float:
        if self._seen is None or not self._seen.any():
            return 1.0
        return float(self._utility[self._seen].mean())

    def probabilities(
        self, t: int, edge: int, device_indices: np.ndarray, capacity: float
    ) -> np.ndarray:
        if len(device_indices) == 0:
            return np.zeros(0)
        if self._utility is None:
            raise RuntimeError("setup() must be called before probabilities()")
        idx = np.asarray(device_indices, dtype=int)
        fallback = self._mean_seen_utility()
        weights = np.where(self._seen[idx], self._utility[idx], fallback)
        if weights.sum() <= 0:
            weights = np.ones(len(idx))
        return capped_proportional_probabilities(weights, capacity)

    def observe_participation(
        self,
        t: int,
        device: int,
        grad_sq_norms: Sequence[float],
        mean_loss: float,
    ) -> None:
        if self._utility is None:
            raise RuntimeError("setup() must be called before observations")
        utility = max(float(mean_loss), 0.0)
        if self._seen[device]:
            self._utility[device] = (
                self.decay * self._utility[device] + (1 - self.decay) * utility
            )
        else:
            self._utility[device] = utility
            self._seen[device] = True

    def state_dict(self) -> dict:
        if self._utility is None:
            return {}
        return {
            "utility": self._utility.copy(),
            "seen": self._seen.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        if self._utility is None:
            raise RuntimeError("setup() must be called before restoring state")
        size = self._utility.shape
        self._utility = check_state_array(
            "utility", state.get("utility"), float, size
        )
        self._seen = check_state_array("seen mask", state.get("seen"), bool, size)
