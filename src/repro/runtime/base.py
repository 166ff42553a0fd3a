"""Executor abstraction: how the HFL engine runs its parallel work.

Algorithm 1 is embarrassingly parallel at two levels — edges are
independent within a time step, and sampled devices within an edge run
their I local SGD steps independently.  An :class:`Executor` receives,
once per time step, every edge's :class:`~repro.runtime.work_items
.EdgeRoundPlan` and returns the per-round local-update results; the
backend decides how the items are scheduled:

- :class:`~repro.runtime.serial.SerialExecutor` — the whole step as one
  chunk, run in process; the default;
- :class:`~repro.runtime.processes.ProcessExecutor` — at most one chunk
  per worker, run on a process pool; device datasets and the scratch
  model ship once per worker, the chunk's edge models once per chunk.

Both share the step pipeline: :func:`split_step` cuts a step's items,
in plan order, into contiguous chunks across edge rounds, and
:func:`run_chunk` runs one chunk as one stacked population pass
(:meth:`~repro.runtime.work_items.WorkerContext.run_items`) in which
each row starts from its own edge's model.

All backends produce bit-identical results for a fixed master seed
because every work item derives its own named random stream from
``(seed, step, edge, device)`` — see :mod:`repro.runtime.work_items`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hfl.device import LocalUpdateResult
from repro.runtime.work_items import (
    EdgeRoundPlan,
    LocalUpdateItem,
    RoundResults,
    WorkerContext,
)

#: Backend names accepted by :func:`make_executor` and ``HFLConfig.executor``.
EXECUTOR_KINDS = ("serial", "process")


class WorkerTiming(NamedTuple):
    """Wall-clock attribution of one executed unit of local-update work.

    Collected only when the caller opts in via
    :meth:`Executor.enable_worker_timings`; ``worker`` names the pool
    process (or ``"main"`` for the serial backend) that ran the unit,
    and ``seconds`` is the unit's own monotonic-clock duration measured
    where it ran.  At ``"item"`` granularity a record covers one device's
    local-update loop; at ``"round"`` granularity ``device`` is ``-1``
    and a record covers one chunk of the step (:func:`split_step`): the
    whole step on the serial backend, one worker's share on the process
    pool.  A chunk may span several edge rounds; its record then has
    ``edge=-1``, so consumers that group by edge (the profiler's
    per-edge shares, the tracer's ``edge_round`` spans) see it as one
    ``-1`` group.  Timings are observability, not results: they never
    cross into aggregation, RNG streams or checkpoints.
    """

    step: int
    edge: int
    device: int
    worker: str
    seconds: float


class WorkerError(RuntimeError):
    """A pool worker failed while running local-update items.

    Carries ``(step, edge)`` coordinates so the caller can tell *which*
    round died, and chains the original worker exception as
    ``__cause__``.  A process chunk can span several edge rounds: the
    edge is then the failing item's where the error names one (the
    ``work_item`` attribute :class:`~repro.runtime.work_items
    .WorkerContext` sets when a device lookup or local update fails),
    otherwise the chunk's first round's.  The process backend shuts down
    and recycles its pool before raising, so the executor stays usable
    for the next step.
    """

    def __init__(self, step: int, edge: int, cause: BaseException) -> None:
        super().__init__(
            f"worker failed running step {step}, edge {edge}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.step = step
        self.edge = edge


class StepChunk(NamedTuple):
    """A contiguous run of one step's items, in plan order, that may span
    edge rounds: item ``i`` belongs to plan ``owners[i]`` and starts from
    ``starts[rows[i]]``, the start models of the plans from the chunk's
    first round to its last."""

    owners: Tuple[int, ...]
    starts: Tuple[np.ndarray, ...]
    items: Tuple[LocalUpdateItem, ...]
    rows: Tuple[int, ...]


#: One chunk's ``(device_id, result)`` pairs in item order, plus its timings.
ChunkOutcome = Tuple[List[Tuple[int, LocalUpdateResult]], List[WorkerTiming]]


def split_step(
    plans: Sequence[EdgeRoundPlan], num_chunks: int
) -> List[StepChunk]:
    """Cut a step's items into at most ``num_chunks`` contiguous chunks
    of near-equal size, across edge rounds; an empty step has none."""
    owners = [index for index, plan in enumerate(plans) for _ in plan.items]
    items = [item for plan in plans for item in plan.items]
    num_chunks = min(num_chunks, len(items))
    bounds = [0] + [
        len(items) * k // num_chunks for k in range(1, num_chunks + 1)
    ]
    chunks: List[StepChunk] = []
    for lo, hi in zip(bounds, bounds[1:]):
        first, last = owners[lo], owners[hi - 1]
        chunks.append(
            StepChunk(
                tuple(owners[lo:hi]),
                tuple(plan.start_model for plan in plans[first : last + 1]),
                tuple(items[lo:hi]),
                tuple(owner - first for owner in owners[lo:hi]),
            )
        )
    return chunks


def run_chunk(
    context: WorkerContext, chunk: StepChunk, timed: Optional[str], worker: str
) -> ChunkOutcome:
    """Run one chunk on ``context``, timed on the caller's clock.

    ``timed`` is ``None`` (off), ``"item"`` or ``"round"``.  Untimed and
    at ``"round"`` granularity the chunk runs as one stacked pass
    (:meth:`WorkerContext.run_items`), ``"round"`` adding one
    ``device=-1`` record for it (``edge=-1`` when it spans edges);
    ``"item"`` runs and times the per-device loop.
    """
    starts, items, rows = chunk.starts, chunk.items, chunk.rows
    if timed is None:
        return context.run_items(starts, items, rows), []
    clock = time.perf_counter
    if timed == "round":
        start = clock()
        pairs = context.run_items(starts, items, rows)
        seconds = clock() - start
        edges = {item.edge for item in items}
        edge = edges.pop() if len(edges) == 1 else -1
        return pairs, [WorkerTiming(items[0].step, edge, -1, worker, seconds)]
    pairs = []
    timings: List[WorkerTiming] = []
    for item, row in zip(items, rows):
        start = clock()
        pairs.append((item.device_id, context.run_item(starts[row], item)))
        timings.append(
            WorkerTiming(
                item.step, item.edge, item.device_id, worker, clock() - start
            )
        )
    return pairs, timings


class Executor(ABC):
    """Runs the local-update work of HFL time steps.

    Life cycle: :meth:`bind` once with the trainer's
    :class:`WorkerContext`, then :meth:`run_step` once per time step,
    then :meth:`close` (or use the executor as a context manager).
    Binding again replaces the context (worker pools are recycled).
    A backend sets how many chunks a step splits into
    (``num_workers``) and where they run (:meth:`_run_chunks`).
    """

    #: Backend identifier (one of :data:`EXECUTOR_KINDS`).
    name: str = "executor"
    #: At most this many chunks per step, one per worker.
    num_workers: int = 1

    def __init__(self) -> None:
        self._context: Optional[WorkerContext] = None
        self._collect_timings = False
        self._timing_granularity = "item"
        self._timings: List[WorkerTiming] = []

    def bind(self, context: WorkerContext) -> None:
        """Attach the immutable per-run state all work items share."""
        if not isinstance(context, WorkerContext):
            raise TypeError(f"expected WorkerContext, got {type(context).__name__}")
        self._context = context
        self._on_bind()

    def _on_bind(self) -> None:
        """Backend hook: invalidate worker replicas built from an old context."""

    @property
    def context(self) -> WorkerContext:
        if self._context is None:
            raise RuntimeError("bind() must be called before running work")
        return self._context

    def run_step(self, plans: Sequence[EdgeRoundPlan]) -> List[RoundResults]:
        """Execute every plan's items; results align with ``plans``.

        Each returned dict maps device id → :class:`LocalUpdateResult`
        for exactly the devices of the corresponding plan, in item
        order.  The call is a barrier: all items complete before it
        returns.
        """
        self.context  # fail fast before touching any worker
        timed = self._timing_granularity if self._collect_timings else None
        chunks = split_step(plans, self.num_workers)
        results: List[RoundResults] = [{} for _ in plans]
        for chunk, (pairs, timings) in zip(chunks, self._run_chunks(chunks, timed)):
            for index, (device_id, result) in zip(chunk.owners, pairs):
                results[index][device_id] = result
            self._timings.extend(timings)
        return results

    @abstractmethod
    def _run_chunks(
        self, chunks: List[StepChunk], timed: Optional[str]
    ) -> List[ChunkOutcome]:
        """:func:`run_chunk` every chunk; outcomes align with ``chunks``."""

    # -- worker-timing attribution (observability opt-in) --------------------

    def enable_worker_timings(self, granularity: str = "item") -> None:
        """Start collecting :class:`WorkerTiming` records.

        Off by default: the reference path pays nothing.  When enabled,
        each backend measures work where it executes and the caller
        drains the records with :meth:`drain_worker_timings` after each
        :meth:`run_step`.

        ``granularity="item"`` times every device's local update
        individually — full attribution, but it forces the backends off
        their stacked population passes, which costs real wall-clock.
        ``granularity="round"`` times whole chunks (one clock pair per
        step on the serial backend, per worker chunk of the step on the
        process pool) on top of the unchanged fast path — near-zero
        overhead, attribution per chunk only (``device=-1``; ``edge=-1``
        for a chunk spanning edges, so a step whose participants sit on
        several edges reports one ``-1`` group).  The continuous
        profiler uses ``"round"``; span tracing, which needs per-device
        spans, uses ``"item"``.
        Calling with ``"item"`` wins over an earlier ``"round"`` call.
        """
        if granularity not in ("item", "round"):
            raise ValueError(
                f"granularity must be 'item' or 'round', got {granularity!r}"
            )
        if self._collect_timings and self._timing_granularity == "item":
            return  # item granularity subsumes round granularity
        self._collect_timings = True
        self._timing_granularity = granularity

    @property
    def collects_worker_timings(self) -> bool:
        return self._collect_timings

    @property
    def timing_granularity(self) -> str:
        return self._timing_granularity

    def drain_worker_timings(self) -> List[WorkerTiming]:
        """Return and clear the timings accumulated since the last drain."""
        timings, self._timings = self._timings, []
        return timings

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def resolve_num_workers(num_workers: Optional[int]) -> int:
    """Default the worker count to the machine's CPU count (min 1)."""
    if num_workers is None:
        import os

        return os.cpu_count() or 1
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    return int(num_workers)


def make_executor(kind: str, num_workers: Optional[int] = None) -> Executor:
    """Instantiate a backend by name (``serial`` / ``process``).

    ``num_workers`` is ignored by the serial backend and defaults to the
    CPU count for the process pool.
    """
    if kind == "serial":
        from repro.runtime.serial import SerialExecutor

        return SerialExecutor()
    if kind == "process":
        from repro.runtime.processes import ProcessExecutor

        return ProcessExecutor(num_workers=num_workers)
    raise ValueError(
        f"unknown executor kind {kind!r}; choose from {EXECUTOR_KINDS}"
    )
