"""Sampler interface and shared probability helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.probability import capped_proportional_probabilities

__all__ = ["DeviceProfile", "Sampler", "capped_proportional_probabilities"]


@dataclass(frozen=True)
class DeviceProfile:
    """Static, privacy-compatible metadata a sampler may use.

    ``class_distribution`` is the device's label distribution — the
    class-balance baseline assumes it is reported once at enrolment,
    exactly as in Fed-CBS [38].
    """

    device_id: int
    num_samples: int
    class_distribution: np.ndarray


class Sampler(ABC):
    """Base class for edge device-sampling strategies.

    Life cycle, driven by :class:`repro.hfl.trainer.HFLTrainer`:

    1. :meth:`setup` once, with the device population metadata;
    2. each time step, per edge: :meth:`probabilities` →  the engine
       draws Bernoulli participation from the returned ``q`` vector;
    3. after each participating device finishes local updating:
       :meth:`observe_participation` with its per-local-step squared
       gradient norms (the training experience of Eq. (14)); a device
       that was sampled but whose upload was lost to a fault instead
       triggers :meth:`observe_failure`;
    4. samplers with ``requires_oracle = True`` additionally receive
       :meth:`observe_oracle` for *every* device in the edge each step
       (the MACH-P "experiences known at every step" assumption);
    5. at every edge-to-cloud communication step: :meth:`on_global_sync`.

    Checkpointing: samplers that learn across steps expose their mutable
    state through :meth:`state_dict` / :meth:`load_state_dict` (dicts
    of JSON values and ndarrays, which the checkpoint codec stores as
    raw bytes) so a killed run can resume bit-identically.
    Stateless samplers inherit the empty-dict defaults.
    """

    #: Human-readable identifier used in experiment reports.
    name: str = "sampler"

    #: When True, the trainer computes a probe gradient norm for every
    #: device in every edge each step and feeds it to observe_oracle.
    requires_oracle: bool = False

    def setup(self, profiles: Sequence[DeviceProfile], num_edges: int) -> None:
        """Receive the device population before training starts."""

    @abstractmethod
    def probabilities(
        self, t: int, edge: int, device_indices: np.ndarray, capacity: float
    ) -> np.ndarray:
        """Sampling probabilities ``q^t_{m,n}`` for the devices of one edge.

        Must return a vector aligned with ``device_indices`` whose
        entries lie in [0, 1] and sum to at most ``capacity`` (Eq. (3)).
        """

    def observe_participation(
        self,
        t: int,
        device: int,
        grad_sq_norms: Sequence[float],
        mean_loss: float,
    ) -> None:
        """Feedback after a sampled device completed its I local updates."""

    def observe_failure(self, t: int, device: int) -> None:
        """Feedback when a sampled device's upload was lost to a fault.

        The device consumed a sampling slot but contributed no gradient
        experience; reliability-aware samplers (MACH) use this to learn
        which devices fail.  Default: ignore.
        """

    def observe_oracle(self, t: int, device: int, grad_sq_norm: float) -> None:
        """Oracle feedback (only called when ``requires_oracle``)."""

    def on_device_joined(self, t: int, device: int) -> None:
        """A device enrolled at step ``t`` (open-population churn).

        Called by the trainer before the plan phase when the churn
        process admits a device (see :mod:`repro.churn`).  Samplers
        that keep per-device learned state can warm-start the arrival
        here — MACH seeds never-tried arrivals with prior-mean UCB
        state.  Default: ignore (stateless samplers need nothing; the
        trainer already restricts member sets to the active mask).
        """

    def on_device_left(self, t: int, device: int) -> None:
        """A device de-enrolled at step ``t`` (open-population churn).

        The trainer stops offering the device in member sets while it
        is gone; samplers may additionally decay or freeze its state.
        Default: ignore — keeping learned state means a returning
        device resumes from what the sampler knew about it.
        """

    def audit_components(
        self, device_indices: Sequence[int]
    ) -> Optional[dict]:
        """Per-candidate score decomposition for the decision audit trail.

        UCB-style samplers return aligned ``{"empirical": [...],
        "bonus": [...], "estimate": [...]}`` lists explaining the scores
        behind the most recent :meth:`probabilities` call (see
        :mod:`repro.obs.audit`).  Must be read-only — the trail is an
        observer, never part of the sampling computation.  Default:
        ``None`` (the sampler has no score decomposition to expose).
        """
        return None

    def on_global_sync(self, t: int) -> None:
        """Called at every edge-to-cloud communication step (t mod Tg == 0)."""

    def state_dict(self) -> dict:
        """Snapshot of the mutable learned state (JSON values, ndarrays)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (after :meth:`setup`)."""
        if state:
            raise ValueError(
                f"sampler {self.name!r} keeps no state but was given "
                f"keys {sorted(state)}"
            )
