"""Device→edge assignment traces (the indicator ``B^t_{n,m}`` of §II-A).

A :class:`MobilityTrace` stores, for every discrete time step ``t`` and
device ``m``, the index of the edge the device is associated with.
Because every device is always associated with exactly one (nearest)
edge, the partition property Eq. (1) — edges' device sets are disjoint
and cover all of M — holds by construction and is checked by
:meth:`MobilityTrace.validate`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.prof import profile_site
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


class MobilityTrace:
    """Discrete-time device→edge association trace.

    Parameters
    ----------
    assignments:
        Integer array of shape (num_steps, num_devices); entry (t, m) is
        the edge index device ``m`` accesses at time step ``t``.
    num_edges:
        Total number of edges N (edge indices are in [0, num_edges)).

    A trace is immutable after construction: membership queries are
    served from a lazily built per-step index (devices grouped by edge
    plus a ``bincount`` of per-edge counts), so mutating
    ``assignments`` in place would silently desynchronize the cache.
    """

    #: Wrapped steps whose membership index is kept resident.  The
    #: trainer only ever looks at a narrow window of steps (the current
    #: round plus the ``t + 1`` departure probe), so a small LRU bounds
    #: index memory to O(cache × devices) instead of O(steps × devices)
    #: on city-scale traces.
    MEMBERSHIP_CACHE_STEPS = 64

    def __init__(self, assignments: np.ndarray, num_edges: int) -> None:
        # int32 keeps edge indices exact up to ~2.1e9 edges while
        # halving the grid's footprint at 100k+ devices; out-of-range
        # input wraps into the bounds check below and fails loudly.
        assignments = np.asarray(assignments, dtype=np.int32)
        if assignments.ndim != 2:
            raise ValueError(
                f"assignments must be (num_steps, num_devices), got {assignments.shape}"
            )
        check_positive("num_edges", num_edges)
        if assignments.size and (
            assignments.min() < 0 or assignments.max() >= num_edges
        ):
            raise ValueError(
                f"edge indices must be in [0, {num_edges}), got range "
                f"[{assignments.min()}, {assignments.max()}]"
            )
        self.assignments = assignments
        self.num_edges = int(num_edges)
        # Per-wrapped-step membership index, built lazily by
        # :meth:`_step_index` and evicted least-recently-used once more
        # than ``MEMBERSHIP_CACHE_STEPS`` wrapped steps are resident.
        self._membership: "OrderedDict[int, Tuple[List[np.ndarray], np.ndarray]]" = (
            OrderedDict()
        )

    @property
    def num_steps(self) -> int:
        return self.assignments.shape[0]

    @property
    def num_devices(self) -> int:
        return self.assignments.shape[1]

    def edge_of(self, t: int, device: int) -> int:
        """Edge index device ``device`` accesses at step ``t``."""
        return int(self.assignments[self._wrap(t), device])

    def _step_index(self, wrapped: int) -> Tuple[List[np.ndarray], np.ndarray]:
        """Membership index of one wrapped step: (members by edge, counts).

        One stable argsort groups the step's devices by edge; within a
        group the original (ascending device-id) order survives, so each
        member array is exactly what ``np.flatnonzero(row == edge)``
        returns — without re-scanning the row once per edge.  The row is
        sorted in the narrowest unsigned dtype that holds every edge
        index: numpy's stable sort of 8- and 16-bit integers is a radix
        sort, and a stable permutation is unique, so the members do not
        depend on the dtype.  The member arrays are frozen (non-writeable)
        because they are shared with every caller; take a copy before
        mutating.  :class:`~repro.mobility.streaming.StreamingTrace`
        shares this method through its own ``_row``.
        """
        index = self._membership.get(wrapped)
        if index is None:
            # The per-step O(population) trace row scan — a documented
            # city-scale hotspot, self-reported to the continuous
            # profiler when one is installed (no-op otherwise).
            with profile_site("mobility", "membership_index"):
                row = self._row(wrapped)
                counts = np.bincount(row, minlength=self.num_edges)
                order = np.argsort(
                    row.astype(np.min_scalar_type(self.num_edges - 1)),
                    kind="stable",
                )
                bounds = np.concatenate(([0], np.cumsum(counts)))
                members = [
                    order[bounds[n] : bounds[n + 1]]
                    for n in range(self.num_edges)
                ]
                for arr in members:
                    arr.flags.writeable = False
                counts.flags.writeable = False
                index = (members, counts)
            self._membership[wrapped] = index
            while len(self._membership) > self.MEMBERSHIP_CACHE_STEPS:
                self._membership.popitem(last=False)
        else:
            self._membership.move_to_end(wrapped)
        return index

    def _row(self, wrapped: int) -> np.ndarray:
        return self.assignments[wrapped]

    def devices_at(self, t: int, edge: int) -> np.ndarray:
        """The device set ``M^t_n`` (sorted device indices).

        A lookup into the per-step membership index (the returned array
        is shared and frozen).
        """
        if not 0 <= edge < self.num_edges:
            raise ValueError(f"edge must be in [0, {self.num_edges}), got {edge}")
        return self._step_index(self._wrap(t))[0][edge]

    def counts_at(self, t: int) -> np.ndarray:
        """Member counts ``|M^t_n|`` for every edge, shape (num_edges,).

        Vectorized via one ``bincount`` (cached per wrapped step).
        """
        return self._step_index(self._wrap(t))[1]

    def assignment_row(self, t: int) -> np.ndarray:
        """The raw edge-index row at (wrapped) step ``t``.

        ``row[m] == edge`` is the O(1) membership test the trainer's
        fault screening uses instead of materializing ``devices_at`` as
        a Python set.
        """
        return self.assignments[self._wrap(t)]

    def indicator_matrix(self, t: int) -> np.ndarray:
        """The binary matrix ``B^t`` of shape (num_edges, num_devices)."""
        row = self.assignments[self._wrap(t)]
        matrix = np.zeros((self.num_edges, self.num_devices), dtype=int)
        matrix[row, np.arange(self.num_devices)] = 1
        return matrix

    def _wrap(self, t: int) -> int:
        """Map an arbitrary step onto the trace (cyclic extension).

        Training runs may be longer than the recorded trace; like
        trace-driven simulators generally do, we replay the trace
        cyclically past its end.
        """
        if t < 0:
            raise ValueError(f"time step must be >= 0, got {t}")
        return t % self.num_steps

    def validate(self) -> None:
        """Check the Eq. (1) partition property at every step.

        With a dense assignment array the property holds structurally;
        this method re-derives it from the representation as a defence
        against future representation changes.  A device is in exactly
        one edge iff its entry is a valid edge index, so one vectorized
        bounds check over the whole array replaces the per-step dense
        ``(num_edges, num_devices)`` indicator matrices the original
        implementation materialized.
        """
        in_one_edge = (self.assignments >= 0) & (
            self.assignments < self.num_edges
        )
        if in_one_edge.all():
            return
        t = int(np.flatnonzero(~in_one_edge.all(axis=1))[0])
        per_device = in_one_edge[t].astype(int)
        raise AssertionError(
            f"step {t}: some device is in != 1 edge (counts {per_device})"
        )

    # ---- statistics ------------------------------------------------------

    def occupancy(self) -> np.ndarray:
        """Mean number of devices per edge, shape (num_edges,).

        One ``bincount`` over the flattened grid replaces the former
        per-step Python loop; summing per-step integer counts commutes
        exactly with counting the whole grid at once, so the result is
        unchanged bit for bit.
        """
        counts = np.bincount(
            self.assignments.ravel(), minlength=self.num_edges
        ).astype(float)
        return counts / self.num_steps

    def handover_rate(self) -> float:
        """Fraction of (step, device) pairs where the device switched edges."""
        if self.num_steps < 2:
            return 0.0
        switches = self.assignments[1:] != self.assignments[:-1]
        return float(switches.mean())

    def empirical_transition_matrix(self) -> np.ndarray:
        """Edge-to-edge empirical transition probabilities (row-stochastic)."""
        counts = np.zeros((self.num_edges, self.num_edges))
        for t in range(self.num_steps - 1):
            np.add.at(counts, (self.assignments[t], self.assignments[t + 1]), 1)
        totals = counts.sum(axis=1, keepdims=True)
        uniform = np.full(self.num_edges, 1.0 / self.num_edges)
        with np.errstate(invalid="ignore", divide="ignore"):
            probs = np.where(totals > 0, counts / totals, uniform)
        return probs

    def slice(self, start: int, stop: int) -> "MobilityTrace":
        """Sub-trace covering steps [start, stop)."""
        if not 0 <= start < stop <= self.num_steps:
            raise ValueError(
                f"invalid slice [{start}, {stop}) for trace of {self.num_steps} steps"
            )
        return MobilityTrace(self.assignments[start:stop], self.num_edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MobilityTrace(steps={self.num_steps}, devices={self.num_devices}, "
            f"edges={self.num_edges}, handover_rate={self.handover_rate():.3f})"
        )


def static_trace(
    num_steps: int,
    num_devices: int,
    num_edges: int,
    rng: RngLike = None,
    assignment: Optional[np.ndarray] = None,
) -> MobilityTrace:
    """A trace with no mobility: devices stay at one (random) edge forever.

    This is the degenerate case in which HFL with mobile devices reduces
    to classical HFL; used as a baseline and in unit tests.
    """
    check_positive("num_steps", num_steps)
    check_positive("num_devices", num_devices)
    check_positive("num_edges", num_edges)
    if assignment is None:
        rng = as_generator(rng)
        assignment = rng.integers(0, num_edges, size=num_devices)
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != (num_devices,):
        raise ValueError(
            f"assignment must have shape ({num_devices},), got {assignment.shape}"
        )
    return MobilityTrace(np.tile(assignment, (num_steps, 1)), num_edges)
