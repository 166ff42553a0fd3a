"""The seeded arrival/departure event stream over the device population.

:class:`ChurnProcess` maintains the active-set mask the trainer
intersects with the mobility trace's per-edge member sets: a device is
samplable at step ``t`` only when the trace places it inside an edge
*and* the churn process says it is enrolled.

Determinism contract (the same one :mod:`repro.faults` honors): every
draw comes from a :class:`~repro.utils.rng.SeedSequenceFactory` named
stream of a ``"churn"`` child factory — ``"initial-active"`` for the
step-0 enrollment and ``"step/{t}"`` for the per-step transition — so
the event stream depends only on the master seed and the profile, never
on executor backend, worker count or completion order.  Each step draws
exactly two fixed-size vectors (one departure draw and one arrival draw
per device) regardless of the current mask, so stream consumption is
independent of the realized population and kill/resume replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.churn.profile import ChurnProfile
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import check_state_array

__all__ = ["ChurnProcess", "ChurnStep", "make_churn_process"]


@dataclass(frozen=True)
class ChurnStep:
    """The population change one :meth:`ChurnProcess.step` produced."""

    #: Devices that enrolled this step (sorted ids).
    joined: List[int]
    #: Devices that de-enrolled this step (sorted ids).
    left: List[int]
    #: Active-set size after applying the transition.
    num_active: int

    @property
    def changed(self) -> bool:
        return bool(self.joined or self.left)


class ChurnProcess:
    """Seeded open-population dynamics over a fixed device id space.

    Life cycle, driven by :class:`repro.hfl.trainer.HFLTrainer`:

    1. :meth:`bind` once with the population size and the trainer's
       seed factory (again on construction of a resuming trainer);
    2. :meth:`reset` at the start of a fresh run — draws the step-0
       enrollment; a resumed run instead restores the mask through
       :meth:`load_state_dict`;
    3. :meth:`step` at the top of every time step, *before* the plan
       phase, returning the arrivals and departures the trainer feeds
       to the sampler hooks and the observability sinks.
    """

    def __init__(self, profile: ChurnProfile) -> None:
        if not isinstance(profile, ChurnProfile):
            raise TypeError(
                f"expected ChurnProfile, got {type(profile).__name__}"
            )
        self.profile = profile
        self._seeds: Optional[SeedSequenceFactory] = None
        self.num_devices = 0
        self._active: Optional[np.ndarray] = None
        self._total_joined = 0
        self._total_left = 0

    def describe(self) -> dict:
        """JSON-compatible description for the run manifest."""
        from dataclasses import asdict

        return {"name": "seeded", "profile": asdict(self.profile)}

    def bind(self, num_devices: int, seeds: SeedSequenceFactory) -> None:
        """Attach the population size and the trainer's seed factory."""
        if num_devices <= 0:
            raise ValueError(
                f"num_devices must be positive, got {num_devices}"
            )
        self.num_devices = int(num_devices)
        # A child factory keeps churn streams disjoint from every engine
        # and fault stream by construction.
        self._seeds = seeds.child("churn")

    def _require_bound(self) -> SeedSequenceFactory:
        if self._seeds is None:
            raise RuntimeError("bind() must be called before use")
        return self._seeds

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean enrollment mask over the device id space."""
        if self._active is None:
            raise RuntimeError("reset() or load_state_dict() must run first")
        return self._active

    @property
    def num_active(self) -> int:
        return int(self.active_mask.sum())

    def reset(self) -> None:
        """Draw the step-0 enrollment from the ``"initial-active"`` stream."""
        seeds = self._require_bound()
        rng = seeds.generator("initial-active")
        draws = rng.random(self.num_devices)
        active = draws < self.profile.initial_active_fraction
        floor = min(self.profile.min_active, self.num_devices)
        if int(active.sum()) < floor:
            # Deterministic fix-up: enroll the devices with the smallest
            # draws (ties broken by id via the stable sort) until the
            # floor is met.
            order = np.argsort(draws, kind="stable")
            for m in order:
                if int(active.sum()) >= floor:
                    break
                active[m] = True
        self._active = active
        self._total_joined = 0
        self._total_left = 0

    def step(self, t: int) -> ChurnStep:
        """Advance the population one step (``"step/{t}"`` stream).

        Two fixed vector draws per step — departures first, arrivals
        second — consumed identically whatever the current mask, so the
        stream position at step ``t`` is a pure function of ``t``.  A
        device cannot join and leave within the same step: transitions
        are computed from the pre-step mask, whose active/inactive
        halves are disjoint.
        """
        seeds = self._require_bound()
        active = self.active_mask
        rng = seeds.generator(f"step/{t}")
        leave_draws = rng.random(self.num_devices)
        join_draws = rng.random(self.num_devices)
        leaving = active & (leave_draws < self.profile.departure_rate)
        joining = (~active) & (join_draws < self.profile.arrival_rate)

        new_active = (active & ~leaving) | joining
        floor = min(self.profile.min_active, self.num_devices)
        deficit = floor - int(new_active.sum())
        if deficit > 0:
            # Cancel the lowest-id departures until the floor is met —
            # deterministic, and arrivals are never cancelled.
            for m in np.flatnonzero(leaving):
                if deficit <= 0:
                    break
                leaving[m] = False
                new_active[m] = True
                deficit -= 1

        self._active = new_active
        joined = [int(m) for m in np.flatnonzero(joining)]
        left = [int(m) for m in np.flatnonzero(leaving)]
        self._total_joined += len(joined)
        self._total_left += len(left)
        return ChurnStep(
            joined=joined, left=left, num_active=int(new_active.sum())
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the population state (the mask as a bool array)."""
        return {
            "active_mask": self.active_mask.copy(),
            "total_joined": self._total_joined,
            "total_left": self._total_left,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (after :meth:`bind`)."""
        self._require_bound()
        self._active = check_state_array(
            "active mask", state.get("active_mask"), bool, (self.num_devices,)
        )
        self._total_joined = int(state.get("total_joined", 0))
        self._total_left = int(state.get("total_left", 0))


def make_churn_process(
    profile: "Optional[ChurnProfile]",
) -> Optional[ChurnProcess]:
    """A :class:`ChurnProcess` for an active profile, else ``None``.

    An inactive profile (the closed-world default) yields ``None`` so
    the trainer's churn-free fast path — bit-identical to the pre-churn
    engine — stays in force.
    """
    if profile is None or not profile.active:
        return None
    return ChurnProcess(profile)
