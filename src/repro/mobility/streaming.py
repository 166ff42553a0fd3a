"""Streaming device→edge traces: membership per step without the grid.

A dense :class:`~repro.mobility.trace.MobilityTrace` materializes the
full ``(num_steps, num_devices)`` assignment grid — 400 MB of int32 at
100k devices × 1k steps, and strictly worse for the month-long Shanghai
Telecom horizon the paper simulates.  The trainer, however, only ever
reads a narrow window of steps (the current round plus the ``t + 1``
churn probe), so this module serves the same query surface —
``counts_at`` / ``assignment_row`` / ``devices_at`` / ``edge_of`` —
from bounded-size **chunks** produced on demand:

- :class:`StreamingTrace` is the trace front end: an LRU cache of a few
  resident chunks plus the same per-step membership index (grouped
  members + counts) the dense hot path builds;
- a chunk provider supplies ``(chunk_steps, num_devices)`` assignment
  blocks.  :class:`DenseChunkProvider` slices an in-memory grid (the
  equivalence reference and the adapter for chunk-loaded recorded
  traces); :class:`MarkovChunkProvider` *generates* chunks from
  per-chunk seed streams so any chunk is reproducible without replaying
  the whole history; :class:`StaticChunkProvider` tiles one assignment
  row virtually.

Determinism contract: a provider must return bit-identical chunks on
every call — eviction followed by re-access must reproduce the same
assignments, or kill/resume replay would fork the trace.  The
equivalence guarantee is :meth:`StreamingTrace.materialize`: the dense
trace it returns answers every query identically to the streaming
front end (tested in ``tests/test_streaming_trace.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.mobility.trace import MobilityTrace
from repro.prof import profile_site
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import check_positive


class DenseChunkProvider:
    """Serve chunks by slicing an in-memory assignment grid.

    Wraps a recorded/generated dense trace so the streaming front end
    can be validated against the dense reference, and stands in for a
    real chunk-loading source (memory-mapped file, database cursor)
    whose access pattern it shares.
    """

    def __init__(self, assignments: np.ndarray, num_edges: int) -> None:
        self.assignments = np.asarray(assignments, dtype=np.int32)
        self.num_steps = int(self.assignments.shape[0])
        self.num_devices = int(self.assignments.shape[1])
        self.num_edges = int(num_edges)

    def chunk(self, start: int, stop: int) -> np.ndarray:
        return self.assignments[start:stop]


class StaticChunkProvider:
    """No mobility: one assignment row, tiled virtually over all steps."""

    def __init__(
        self, assignment: np.ndarray, num_steps: int, num_edges: int
    ) -> None:
        check_positive("num_steps", num_steps)
        self.assignment = np.asarray(assignment, dtype=np.int32)
        self.num_steps = int(num_steps)
        self.num_devices = int(self.assignment.shape[0])
        self.num_edges = int(num_edges)

    def chunk(self, start: int, stop: int) -> np.ndarray:
        return np.tile(self.assignment, (stop - start, 1))


class MarkovChunkProvider:
    """Generate Markov-walk chunks on demand, reproducibly.

    Each chunk draws its transition uniforms from a dedicated
    ``("chunk", index)`` seed stream, so regenerating an evicted chunk
    never depends on how many draws earlier chunks consumed.  The only
    carried state is the device-edge vector at each chunk boundary,
    cached forward as chunks are first visited — O(num_devices) per
    boundary instead of O(num_devices × steps) for the grid.

    The walk dynamics are exactly
    :meth:`repro.mobility.markov.MarkovMobilityModel.sample_trace`'s
    (inverse-CDF step via the cumulative transition rows); only the
    random-stream layout differs, which changes the sampled trajectory,
    not its law.
    """

    def __init__(
        self,
        transition: np.ndarray,
        num_steps: int,
        num_devices: int,
        seed: int,
        chunk_steps: int = 64,
    ) -> None:
        check_positive("num_steps", num_steps)
        check_positive("num_devices", num_devices)
        check_positive("chunk_steps", chunk_steps)
        transition = np.asarray(transition, dtype=float)
        self.num_steps = int(num_steps)
        self.num_devices = int(num_devices)
        self.num_edges = int(transition.shape[0])
        self.chunk_steps = int(chunk_steps)
        # One contiguous array per destination edge (see _advance).
        self._cumulative_columns = np.ascontiguousarray(
            np.cumsum(transition, axis=1).T
        )
        self._seeds = SeedSequenceFactory(seed)
        initial = self._seeds.generator("initial").integers(
            0, self.num_edges, size=self.num_devices
        )
        # _boundary[c] is the assignment row at step c * chunk_steps; rows
        # are appended as chunks are first generated (always in order).
        self._boundary: List[np.ndarray] = [initial.astype(np.int32)]

    def _advance(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One inverse-CDF step: the next edge is the number of cumulative
        entries of the device's row that ``u`` exceeds.

        Counted one destination column at a time — the same comparisons
        as gathering each device's whole row, without the
        ``(num_devices, num_edges)`` block.
        """
        u = rng.random(self.num_devices)
        nxt = np.zeros(self.num_devices, dtype=np.int32)
        entry = np.empty(self.num_devices)
        exceeds = np.empty(self.num_devices, dtype=bool)
        for column in self._cumulative_columns:
            np.take(column, state, out=entry)
            np.greater(u, entry, out=exceeds)
            nxt += exceeds
        return nxt

    def _boundary_state(self, chunk_index: int) -> np.ndarray:
        while len(self._boundary) <= chunk_index:
            self._generate(len(self._boundary) - 1)
        return self._boundary[chunk_index]

    def _generate(self, chunk_index: int) -> np.ndarray:
        start = chunk_index * self.chunk_steps
        stop = min(start + self.chunk_steps, self.num_steps)
        state = self._boundary_state(chunk_index)
        rng = self._seeds.generator(f"chunk/{chunk_index}")
        block = np.empty((stop - start, self.num_devices), dtype=np.int32)
        block[0] = state
        for row in range(1, stop - start):
            block[row] = self._advance(block[row - 1], rng)
        if stop < self.num_steps and len(self._boundary) == chunk_index + 1:
            self._boundary.append(self._advance(block[-1], rng))
        return block

    def chunk(self, start: int, stop: int) -> np.ndarray:
        if start % self.chunk_steps or stop - start > self.chunk_steps:
            raise ValueError(
                f"chunk [{start}, {stop}) is not aligned to {self.chunk_steps}"
            )
        return self._generate(start // self.chunk_steps)


class StreamingTrace:
    """Bounded-memory trace front end over a chunk provider.

    Duck-types the :class:`~repro.mobility.trace.MobilityTrace` query
    surface the trainer uses (``counts_at`` / ``assignment_row`` /
    ``devices_at`` / ``edge_of``, plus the cyclic ``_wrap`` extension
    and the statistics helpers), while holding at most
    ``MAX_RESIDENT_CHUNKS`` assignment chunks and
    ``MEMBERSHIP_CACHE_STEPS`` per-step membership indexes in memory.
    """

    #: Assignment chunks kept resident (LRU).  Two suffice for the
    #: trainer's window (round step + departure probe may straddle a
    #: chunk boundary); a few more absorb observers peeking nearby.
    MAX_RESIDENT_CHUNKS = 4
    #: Per-step membership indexes kept resident (LRU), matching
    #: :attr:`MobilityTrace.MEMBERSHIP_CACHE_STEPS`'s role.
    MEMBERSHIP_CACHE_STEPS = 64

    def __init__(self, provider, chunk_steps: Optional[int] = None) -> None:
        self.provider = provider
        if chunk_steps is None:
            chunk_steps = getattr(provider, "chunk_steps", 64)
        check_positive("chunk_steps", chunk_steps)
        self.chunk_steps = int(chunk_steps)
        self.num_steps = int(provider.num_steps)
        self.num_devices = int(provider.num_devices)
        self.num_edges = int(provider.num_edges)
        self._chunks: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._membership: "OrderedDict[int, Tuple[List[np.ndarray], np.ndarray]]" = (
            OrderedDict()
        )

    # ---- chunk plumbing --------------------------------------------------

    def _chunk_for(self, wrapped: int) -> np.ndarray:
        index = wrapped // self.chunk_steps
        block = self._chunks.get(index)
        if block is None:
            start = index * self.chunk_steps
            stop = min(start + self.chunk_steps, self.num_steps)
            with profile_site("mobility", "chunk_load"):
                block = np.asarray(
                    self.provider.chunk(start, stop), dtype=np.int32
                )
            if block.shape != (stop - start, self.num_devices):
                raise ValueError(
                    f"provider returned chunk of shape {block.shape}, "
                    f"expected {(stop - start, self.num_devices)}"
                )
            block.flags.writeable = False
            self._chunks[index] = block
            while len(self._chunks) > self.MAX_RESIDENT_CHUNKS:
                self._chunks.popitem(last=False)
        else:
            self._chunks.move_to_end(index)
        return block

    def _wrap(self, t: int) -> int:
        if t < 0:
            raise ValueError(f"time step must be >= 0, got {t}")
        return t % self.num_steps

    def _row(self, wrapped: int) -> np.ndarray:
        return self._chunk_for(wrapped)[wrapped % self.chunk_steps]

    # The dense backend's LRU membership index over this class's _row,
    # so member order is identical on both backends.
    _step_index = MobilityTrace._step_index

    # ---- MobilityTrace query surface -------------------------------------

    def edge_of(self, t: int, device: int) -> int:
        return int(self._row(self._wrap(t))[device])

    def assignment_row(self, t: int) -> np.ndarray:
        return self._row(self._wrap(t))

    def devices_at(self, t: int, edge: int) -> np.ndarray:
        if not 0 <= edge < self.num_edges:
            raise ValueError(f"edge must be in [0, {self.num_edges}), got {edge}")
        return self._step_index(self._wrap(t))[0][edge]

    def counts_at(self, t: int) -> np.ndarray:
        return self._step_index(self._wrap(t))[1]

    def validate(self) -> None:
        """Eq. (1) partition check, one chunk at a time."""
        for start in range(0, self.num_steps, self.chunk_steps):
            wrapped = start  # chunk-aligned step
            block = self._chunk_for(wrapped)
            if block.size and (block.min() < 0 or block.max() >= self.num_edges):
                raise AssertionError(
                    f"chunk at step {start}: edge indices outside "
                    f"[0, {self.num_edges})"
                )

    # ---- statistics ------------------------------------------------------

    def occupancy(self) -> np.ndarray:
        """Mean devices per edge, accumulated chunk by chunk."""
        counts = np.zeros(self.num_edges)
        for start in range(0, self.num_steps, self.chunk_steps):
            block = self._chunk_for(start)
            counts += np.bincount(block.ravel(), minlength=self.num_edges)
        return counts / self.num_steps

    def handover_rate(self) -> float:
        """Fraction of (step, device) pairs that switched edges."""
        if self.num_steps < 2:
            return 0.0
        switches = 0
        previous_last: Optional[np.ndarray] = None
        for start in range(0, self.num_steps, self.chunk_steps):
            block = self._chunk_for(start)
            if previous_last is not None:
                switches += int((block[0] != previous_last).sum())
            switches += int((block[1:] != block[:-1]).sum())
            previous_last = block[-1].copy()
        return switches / ((self.num_steps - 1) * self.num_devices)

    def materialize(self) -> MobilityTrace:
        """The equivalent dense trace (for parity tests and small runs)."""
        blocks = [
            np.array(self._chunk_for(start))
            for start in range(0, self.num_steps, self.chunk_steps)
        ]
        return MobilityTrace(np.concatenate(blocks, axis=0), self.num_edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamingTrace(steps={self.num_steps}, devices={self.num_devices}, "
            f"edges={self.num_edges}, chunk_steps={self.chunk_steps}, "
            f"provider={type(self.provider).__name__})"
        )


def streaming_markov_trace(
    num_edges: int,
    num_steps: int,
    num_devices: int,
    seed: int,
    stay_probability: float = 0.8,
    chunk_steps: int = 64,
    transition: Optional[np.ndarray] = None,
) -> StreamingTrace:
    """A streaming stay-or-jump Markov trace (see :class:`MarkovChunkProvider`)."""
    from repro.mobility.markov import MarkovMobilityModel

    if transition is None:
        transition = MarkovMobilityModel.stay_or_jump(
            num_edges, stay_probability=stay_probability
        ).transition
    provider = MarkovChunkProvider(
        transition, num_steps, num_devices, seed, chunk_steps=chunk_steps
    )
    return StreamingTrace(provider)
