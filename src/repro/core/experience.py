"""Algorithm 2: online experience updating with a UCB estimator.

Every device keeps a *gradient experience buffer* ``G^t_m`` holding the
squared ℓ2-norms of all its local stochastic gradients since the last
edge-to-cloud communication (Eq. (14)).  At each communication step the
device refreshes its estimated maximum gradient norm ``G̃²_m`` with the
UCB score of Eq. (15):

.. math::
    \\tilde G^2_m = \\underbrace{\\max_{t'} \\; 1^{t'}_{m,n}
    \\,\\mathrm{Avg}(G^{t'}_m)}_{exploitation}
    + \\underbrace{\\sqrt{\\log(t) / \\textstyle\\sum_{t'}
    1^{t'}_{m,n}}}_{exploration}

and clears the buffer.  Devices never sampled keep an infinite
exploration bonus, so each edge is driven to try them — this is what
lets MACH operate with no prior knowledge of device data statistics.

Exploitation window
-------------------
Read literally, Eq. (15)'s max ranges over *all* past steps, making the
exploitation term a lifetime maximum: since gradient norms are largest
at the start of training, every device's estimate freezes at its
early-training value and the sampling strategy stops adapting — at odds
with the algorithm's stated goal of tracking dynamic edge conditions
(and with the buffer-clearing in Algorithm 2 line 4, which exists
precisely so new windows reflect current statistics).  We therefore
default to ``window="recent"``: the max is taken over the buffer
snapshots of the *current* inter-sync window, with the previous
estimate retained when the device did not participate at all.  The
literal reading remains available as ``window="lifetime"`` and the
ABL-UCB benchmark compares the two.

Other documented deviations: Eq. (15)'s ``log(t)`` is undefined at
``t ∈ {0, 1}``; we use ``log(t + 1)`` like standard UCB1 round counts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.validation import (
    check_membership,
    check_positive,
    check_state_array,
)

#: Valid exploitation-window modes.
WINDOW_MODES = ("recent", "lifetime")

#: :meth:`ExperienceTracker.state_dict` columns and their dtypes.
_STATE_COLUMNS = {
    "buffer_len": np.int64,
    "buffer": np.float64,
    "window_best": np.float64,
    "window_participated": np.bool_,
    "lifetime_best": np.float64,
    "participation_count": np.int64,
    "exploit": np.float64,
    "has_exploit": np.bool_,
    "estimate": np.float64,
    "has_estimate": np.bool_,
}
#: Shared zero-length buffer: :meth:`ExperienceTracker.record` replaces
#: a row's buffer before writing once it outgrows it, so one empty
#: array can stand for every empty row.
_EMPTY_BUFFER = np.empty(0)


class ExperienceTracker:
    """The population of per-device experiences, synced on Algorithm 1's clock.

    Array-backed: the per-device Algorithm-2 scalars live in
    structure-of-arrays numpy storage sized by the explicit device
    population, so the per-sync refresh (:meth:`sync_all`) and the
    per-plan reads (:meth:`estimates` / :meth:`audit_components`) are
    single vectorized ops instead of Python loops over per-device
    objects.  The values match Algorithm 2 read literally, one device
    at a time, bit for bit (``tests/core`` keeps that scalar reading as
    the oracle); :meth:`state_dict` is columnar, one array per field.

    Two bit-stability choices keep kill/resume exact and the scalar
    reading's bits: the running buffer average is ``np.mean`` over the
    *full* buffer (pairwise summation over the same values is
    deterministic, whereas a running sum would group additions
    differently after a checkpoint restore), and every bonus
    computation is the scalar ``math.log`` followed by the elementwise
    ``np.sqrt`` / divide (all correctly rounded, so vector and scalar
    results match bit for bit).

    Lazy per-device sync
    --------------------
    :meth:`sync_all` is O(touched), not O(population): only devices
    with window activity since the previous sync (records, failures,
    arrival seeds) need their exploitation term folded; everyone else's
    estimate is a pure function of ``(exploit, count-at-sync, t)`` and
    is materialized on demand by :meth:`estimates`.  A run sampling K
    devices per step therefore pays O(K · T_g) per sync regardless of
    how many devices exist — the city-scale regime where K ≪ N.  The
    materialized values are bit-identical to the former eager refresh
    because the same scalar ``log`` feeds the same elementwise
    ``sqrt``/divide, just evaluated for the requested rows only.
    """

    def __init__(self, num_devices: int, window: str = "recent") -> None:
        check_positive("num_devices", num_devices)
        check_membership("window", window, WINDOW_MODES)
        self.window = window
        self.num_devices = int(num_devices)
        n = self.num_devices
        #: Per-device gradient experience buffers G^t_m (Eq. (14)):
        #: growable float arrays, valid up to ``_buffer_len[m]``.
        self._buffer_data: List[np.ndarray] = [_EMPTY_BUFFER] * n
        self._buffer_len = np.zeros(n, dtype=int)
        self._window_best = np.zeros(n)
        self._window_participated = np.zeros(n, dtype=bool)
        self._lifetime_best = np.zeros(n)
        self._participation_count = np.zeros(n, dtype=int)
        # Exploitation term carried across syncs (0.0 until a device is
        # first folded; the JSON ``None`` state is tracked by the flag
        # array plus the has-any-sync-happened counter below).
        self._exploit = np.zeros(n)
        self._has_exploit = np.zeros(n, dtype=bool)
        #: Participation count frozen at the device's last estimate
        #: refresh — the denominator of its current exploration bonus.
        self._synced_count = np.zeros(n, dtype=int)
        #: Devices with window/count activity since the last sync; the
        #: only rows the next :meth:`sync_all` must fold.
        self._touched: set = set()
        #: Clock of the last sync (None before the first): with
        #: ``_synced_count`` this reproduces every untouched device's
        #: frozen estimate on demand.
        self._last_sync_t: Optional[int] = None
        self._num_syncs = 0
        #: Estimates pinned outside the lazy formula (arrival seeds and
        #: checkpoint-restored values, which freeze until the next
        #: sync).  Allocated only while such pins exist.
        self._explicit_estimate: Optional[np.ndarray] = None
        self._has_explicit: Optional[np.ndarray] = None

    def _pin_estimate(self, device: int, value: float) -> None:
        """Pin one device's estimate until the next sync."""
        if self._explicit_estimate is None:
            self._explicit_estimate = np.zeros(self.num_devices)
            self._has_explicit = np.zeros(self.num_devices, dtype=bool)
        self._explicit_estimate[device] = value
        self._has_explicit[device] = True

    def _check_device(self, device: int) -> int:
        if not 0 <= device < self.num_devices:
            raise KeyError(f"unknown device {device}")
        return int(device)

    def _check_indices(self, device_indices: Sequence[int]) -> np.ndarray:
        idx = np.asarray(device_indices, dtype=int)
        if idx.size:
            bad = (idx < 0) | (idx >= self.num_devices)
            if bad.any():
                raise KeyError(f"unknown device {int(idx[bad][0])}")
        return idx

    def record(self, device: int, grad_sq_norms: Sequence[float]) -> None:
        """Record one participated step for ``device`` (Eq. (14))."""
        m = self._check_device(device)
        norms = [float(g) for g in grad_sq_norms]
        if not norms:
            raise ValueError("a participated step must report >= 1 gradient norm")
        if any(g < 0 for g in norms):
            raise ValueError("squared gradient norms must be non-negative")
        length = int(self._buffer_len[m])
        need = length + len(norms)
        data = self._buffer_data[m]
        if need > data.size:
            grown = np.empty(max(need, 2 * data.size, 8))
            grown[:length] = data[:length]
            self._buffer_data[m] = data = grown
        data[length:need] = norms
        self._buffer_len[m] = need
        self._participation_count[m] += 1
        self._touched.add(m)
        # Full-buffer mean (not a running sum): bit-stable across
        # checkpoint restores — see the class docstring.
        running_average = float(np.mean(data[:need]))
        if running_average > self._window_best[m]:
            self._window_best[m] = running_average
        self._window_participated[m] = True
        if running_average > self._lifetime_best[m]:
            self._lifetime_best[m] = running_average

    def record_failure(self, device: int) -> None:
        """A sampled-but-failed step: the device was tried but uploaded
        nothing.

        Counts toward Σ 1^{t'}_{m,n}, shrinking the exploration bonus,
        while leaving the exploitation term untouched, so a device that
        keeps failing drifts down the UCB ranking: the estimator learns
        device *reliability* alongside gradient magnitude.
        """
        m = self._check_device(device)
        self._participation_count[m] += 1
        self._touched.add(m)

    def initialize_arrival(self, device: int, t: int) -> bool:
        """Seed a newly arrived device with prior-mean UCB state.

        Open-population support (see :mod:`repro.churn`): a device that
        enrolls mid-run would otherwise carry the infinite
        never-estimated bonus, and a burst of arrivals would crowd out
        every learned estimate for several rounds.  Instead, a device
        the tracker has *never* tried is initialized as if it had one
        pseudo-trial at the population's mean exploitation value — it
        competes immediately on the current population's scale while
        its single-trial exploration bonus still favors trying it soon.

        Returning devices (any prior participation or estimate) keep
        their learned state untouched; before the first sync there is
        no population prior and the arrival stays in the ordinary
        never-tried regime.  Returns whether the seeding happened.
        Tracker-level only: the prior is a population statistic no
        single device's state holds.
        """
        m = self._check_device(device)
        if self._participation_count[m] > 0 or self._has_estimate(m):
            return False
        tried = self._has_exploit & (self._participation_count > 0)
        if not tried.any():
            return False
        prior = float(np.mean(self._exploit[tried]))
        self._participation_count[m] = 1
        self._synced_count[m] = 1
        self._exploit[m] = prior
        self._has_exploit[m] = True
        # The seed uses the arrival clock, not the last sync's, so it
        # is pinned verbatim until the next sync folds it normally.
        self._pin_estimate(m, prior + math.sqrt(math.log(t + 1)))
        self._touched.add(m)
        return True

    def _has_estimate(self, device: int) -> bool:
        """Whether ``device`` currently has a (finite or inf) estimate."""
        if self._num_syncs > 0:
            return True
        return bool(
            self._has_explicit is not None and self._has_explicit[device]
        )

    def sync_all(self, t: int) -> None:
        """Edge-to-cloud step: refresh every device's UCB estimate.

        Lazily: only the devices touched since the previous sync have
        their exploitation term folded and their window cleared here —
        O(touched).  Everyone else's refreshed estimate is the pure
        function ``exploit + sqrt(log(t + 1) / count-at-sync)`` of
        state this call leaves untouched, materialized on demand by
        :meth:`estimates`.  (An untouched device's window is already
        clear and, in ``lifetime`` mode, its ``exploit`` already equals
        its lifetime best from the sync that last folded it, so the
        skipped work is exactly the work whose result cannot change.)
        """
        if self._touched:
            touched = np.fromiter(
                sorted(self._touched), dtype=int, count=len(self._touched)
            )
            if self.window == "lifetime":
                exploit = self._lifetime_best[touched]
            else:
                # Window best where the device participated; otherwise
                # carry the previous value (0.0 before the first one).
                exploit = np.where(
                    self._window_participated[touched],
                    self._window_best[touched],
                    self._exploit[touched],
                )
            self._exploit[touched] = exploit
            self._has_exploit[touched] = True
            self._synced_count[touched] = self._participation_count[touched]
            # Clear the window: Algorithm 2 line 4.
            self._buffer_len[touched] = 0
            self._window_best[touched] = 0.0
            self._window_participated[touched] = False
            self._touched.clear()
        self._last_sync_t = int(t)
        self._num_syncs += 1
        # Pins (arrival seeds / restored values) are superseded by the
        # recomputable post-sync estimates.
        self._explicit_estimate = None
        self._has_explicit = None

    def estimates(self, device_indices: Sequence[int]) -> np.ndarray:
        """Current G̃²_m for the requested devices (inf ⇒ never estimated).

        O(len(device_indices)): materializes the lazily synced UCB
        values for the requested rows only, bit-identical to the former
        eager full-population refresh (same scalar ``log``, same
        elementwise ``sqrt``/divide — see the class docstring).
        """
        idx = self._check_indices(device_indices)
        est = np.full(idx.shape, math.inf)
        if self._num_syncs > 0:
            synced = self._synced_count[idx]
            tried = synced > 0
            if tried.any():
                log_t = math.log(self._last_sync_t + 1)
                est[tried] = self._exploit[idx][tried] + np.sqrt(
                    log_t / synced[tried]
                )
        if self._has_explicit is not None:
            pinned = self._has_explicit[idx]
            est[pinned] = self._explicit_estimate[idx][pinned]
        return est

    def audit_components(
        self, device_indices: Sequence[int]
    ) -> Dict[str, List[float]]:
        """Per-device UCB decomposition for the requested devices.

        Returns aligned ``empirical`` / ``bonus`` / ``estimate`` lists —
        the audit-trail view of :meth:`estimates`.  ``empirical`` is the
        Eq. (15) exploitation term at the last sync (0.0 before any
        sync), ``bonus`` the exploration term, recovered exactly as
        ``estimate − empirical`` (infinite while never estimated).
        """
        idx = self._check_indices(device_indices)
        has_exploit = self._has_exploit[idx] | (self._num_syncs > 0)
        empirical = np.where(has_exploit, self._exploit[idx], 0.0)
        estimate = self.estimates(idx)
        bonus = np.where(
            np.isfinite(estimate), estimate - empirical, math.inf
        )
        return {
            "empirical": empirical.tolist(),
            "bonus": bonus.tolist(),
            "estimate": estimate.tolist(),
        }

    def participation_counts(self) -> np.ndarray:
        """Per-device total participation counts (diagnostics).

        Sized by the explicit device population given at construction —
        well-defined independent of which ids have participated.
        """
        return self._participation_count.copy()

    def state_dict(self) -> dict:
        """Columnar snapshot of every device's experience.

        One array per Algorithm-2 field, indexed by device id; the
        buffers are concatenated in device order (CSR layout, row
        lengths in ``buffer_len``).  ``has_exploit`` / ``has_estimate``
        mark the devices whose ``exploit`` / ``estimate`` entry is set,
        so an infinite
        never-tried estimate is a value, not a sentinel.
        """
        all_devices = np.arange(self.num_devices)
        has_exploit = self._has_exploit | (self._num_syncs > 0)
        has_estimate = np.full(self.num_devices, self._num_syncs > 0)
        if self._has_explicit is not None:
            has_estimate |= self._has_explicit
        filled = np.flatnonzero(self._buffer_len)
        return {
            "window": self.window,
            "buffer_len": self._buffer_len.copy(),
            "buffer": np.concatenate(
                [np.empty(0)]
                + [self._buffer_data[m][: self._buffer_len[m]] for m in filled]
            ),
            "window_best": self._window_best.copy(),
            "window_participated": self._window_participated.copy(),
            "lifetime_best": self._lifetime_best.copy(),
            "participation_count": self._participation_count.copy(),
            "exploit": np.where(has_exploit, self._exploit, 0.0),
            "has_exploit": has_exploit,
            "estimate": np.where(has_estimate, self.estimates(all_devices), 0.0),
            "has_estimate": has_estimate,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into an existing tracker.

        Raises :class:`ValueError` for a window-mode mismatch, a missing
        column, a column of the wrong dtype or length, or buffer lengths
        that are negative or do not sum to the flat buffer's size.
        """
        if state.get("window") != self.window:
            raise ValueError(
                f"checkpoint window mode {state.get('window')!r} does not "
                f"match tracker window {self.window!r}"
            )
        columns = {
            name: check_state_array(
                f"tracker column {name!r}",
                state.get(name),
                dtype,
                None if name == "buffer" else (self.num_devices,),
            )
            for name, dtype in _STATE_COLUMNS.items()
        }
        lengths, buffer = columns["buffer_len"], columns["buffer"]
        if (
            buffer.ndim != 1
            or ((lengths < 0) | (lengths > buffer.size)).any()
            or lengths.sum() != buffer.size
        ):
            raise ValueError(
                "checkpoint tracker buffer lengths are negative or do not "
                f"sum to the flat buffer's {buffer.size} entries"
            )
        # Restored estimates are frozen until the next sync (exactly the
        # eager semantics), so they come back as pins; counts-at-sync
        # are unknowable from the state, but setting them to the stored
        # counts is exact for every device the next sync does not fold,
        # and folded devices get refreshed from their true counts.
        self._num_syncs = 0
        self._last_sync_t = None
        self._buffer_len = lengths
        self._buffer_data = [_EMPTY_BUFFER] * self.num_devices
        ends = np.cumsum(lengths)
        for m in np.flatnonzero(lengths):
            self._buffer_data[m] = buffer[ends[m] - lengths[m] : ends[m]].copy()
        self._window_best = columns["window_best"]
        self._window_participated = columns["window_participated"]
        self._lifetime_best = columns["lifetime_best"]
        self._participation_count = columns["participation_count"]
        self._synced_count = self._participation_count.copy()
        self._has_exploit = columns["has_exploit"]
        self._exploit = np.where(self._has_exploit, columns["exploit"], 0.0)
        has_estimate = columns["has_estimate"]
        pinned = has_estimate.any()
        self._has_explicit = has_estimate if pinned else None
        self._explicit_estimate = (
            np.where(has_estimate, columns["estimate"], 0.0) if pinned else None
        )
        self._touched = set(
            np.flatnonzero(
                (self._buffer_len > 0)
                | self._window_participated
                | (self._window_best != 0)
            ).tolist()
        )
