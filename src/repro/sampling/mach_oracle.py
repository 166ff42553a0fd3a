"""MACH-P: MACH with oracle training experiences (§IV-A.3).

The paper's strongest comparator assumes "the training experiences for
each device in every time step are known, i.e., without online
experience updating".  MACH-P therefore skips the UCB estimator and
feeds the *true* current squared gradient norm of every device in the
edge (probed by the trainer each step) straight into the Algorithm-3
edge sampling.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.edge_sampling import EdgeSamplingConfig, edge_strategy
from repro.sampling.base import DeviceProfile, Sampler
from repro.utils.validation import check_state_array


class MACHOracleSampler(Sampler):
    """Edge sampling on ground-truth gradient norms (no UCB estimation)."""

    name = "mach_p"
    requires_oracle = True

    def __init__(self, config: Optional[EdgeSamplingConfig] = None) -> None:
        self.config = config if config is not None else EdgeSamplingConfig()
        self._true_g_sq: Optional[np.ndarray] = None

    def setup(self, profiles: Sequence[DeviceProfile], num_edges: int) -> None:
        if not profiles:
            raise ValueError("profiles is empty")
        num_devices = max(p.device_id for p in profiles) + 1
        self._true_g_sq = np.full(num_devices, np.inf)

    def observe_oracle(self, t: int, device: int, grad_sq_norm: float) -> None:
        if self._true_g_sq is None:
            raise RuntimeError("setup() must be called before observations")
        if grad_sq_norm < 0:
            raise ValueError("squared gradient norm must be non-negative")
        self._true_g_sq[device] = float(grad_sq_norm)

    def probabilities(
        self, t: int, edge: int, device_indices: np.ndarray, capacity: float
    ) -> np.ndarray:
        if len(device_indices) == 0:
            return np.zeros(0)
        if self._true_g_sq is None:
            raise RuntimeError("setup() must be called before probabilities()")
        estimates = self._true_g_sq[np.asarray(device_indices, dtype=int)]
        return edge_strategy(estimates, capacity, self.config, t=t)

    def on_device_joined(self, t: int, device: int) -> None:
        """Churn arrivals need no warm start here: the oracle probe
        refreshes every member's true norm at the next plan phase, so
        an arrival is fully scored one step after joining."""

    def audit_components(self, device_indices) -> dict:
        """Oracle decomposition: the true norms are the whole score.

        MACH-P has no estimator — ``empirical`` equals the consumed
        estimate and the exploration ``bonus`` is identically zero.
        """
        if self._true_g_sq is None:
            raise RuntimeError("setup() must be called before audit_components()")
        values = [
            float(self._true_g_sq[int(m)]) for m in device_indices
        ]
        return {
            "empirical": values,
            "bonus": [0.0] * len(values),
            "estimate": values,
        }

    def state_dict(self) -> dict:
        if self._true_g_sq is None:
            return {}
        return {"true_g_sq": self._true_g_sq.copy()}

    def load_state_dict(self, state: dict) -> None:
        if self._true_g_sq is None:
            raise RuntimeError("setup() must be called before restoring state")
        self._true_g_sq = check_state_array(
            "true G^2 values", state.get("true_g_sq"), float, self._true_g_sq.shape
        )
