"""Process-pool backend: true multi-core parallelism for CPU-bound updates.

Shipping discipline (what crosses the process boundary, and how often):

- once per worker, at pool start: the :class:`WorkerContext` — scratch
  model architecture + weights and every device's dataset — via the
  pool initializer;
- once per worker chunk per step: the flattened start model ``w^t_n``
  of each edge round the chunk touches (each once), a per-item row
  index into them, and the (tiny, scalar-only) work items;
- back per item: the device's flattened final model and its gradient
  statistics.

A step's items, in plan order, are split into at most ``num_workers``
contiguous chunks across edge rounds, so a step submits at most
``num_workers`` futures and each worker runs its chunk as one stacked
population pass (:meth:`WorkerContext.run_items`) however the
participants spread over edges.  Results are routed back to their
round by position and keyed by device id, so completion order never
matters; combined with per-``(step, edge, device)`` seed streams and
stacked slices that never read another row, this backend is
bit-identical to :class:`~repro.runtime.serial.SerialExecutor`.

The context's scratch model crosses the process boundary (pickle on
spawn platforms, fork inheritance otherwise) *without* its flat-alias
state — ``Model.__getstate__`` drops it — so each worker re-aliases
parameters into its own canonical flat buffer on the first local
update it runs.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor as _ProcessPool
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hfl.device import LocalUpdateResult
from repro.runtime.base import (
    Executor,
    WorkerError,
    WorkerTiming,
    resolve_num_workers,
)
from repro.runtime.work_items import (
    EdgeRoundPlan,
    LocalUpdateItem,
    RoundResults,
    WorkerContext,
)

#: Per-process context installed by the pool initializer.
_WORKER_CONTEXT: Optional[WorkerContext] = None


def _init_worker(context: WorkerContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_chunk(
    starts: Tuple[np.ndarray, ...],
    items: Tuple[LocalUpdateItem, ...],
    rows: Tuple[int, ...],
    timed: Optional[str] = None,
) -> Tuple[List[Tuple[int, LocalUpdateResult]], List[WorkerTiming]]:
    """Worker-side entry: run one chunk of a step's items.

    Item ``i`` starts from ``starts[rows[i]]``.  ``timed`` is ``None``
    (off), ``"item"`` or ``"round"``.  Returns the ``(device_id,
    result)`` pairs in item order plus, when timed, the
    :class:`WorkerTiming` records measured on the worker's own
    monotonic clock — one per item at ``"item"`` granularity, one
    ``device=-1`` record covering the whole (still stacked) chunk at
    ``"round"`` granularity, whose edge is ``-1`` when the chunk spans
    several edge rounds.  The untimed path ships no extra bytes.
    """
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - defensive
        raise RuntimeError("worker pool was not initialized with a context")
    if timed is None:
        return context.run_items(starts, items, rows), []
    worker = multiprocessing.current_process().name
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


class ProcessExecutor(Executor):
    """Fan device local-updates out over a process pool."""

    name = "process"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        super().__init__()
        self.num_workers = resolve_num_workers(num_workers)
        self._pool: Optional[_ProcessPool] = None

    def _on_bind(self) -> None:
        # Workers were initialized with the previous context; recycle.
        self._shutdown_pool()

    def _ensure_pool(self) -> _ProcessPool:
        if self._pool is None:
            # Fork (where available) inherits the context without a
            # pickle round-trip; spawn platforms serialize it once.
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = _ProcessPool(
                max_workers=self.num_workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(self.context,),
            )
        return self._pool

    def run_step(self, plans: Sequence[EdgeRoundPlan]) -> List[RoundResults]:
        self.context  # fail fast before touching the pool
        pool = self._ensure_pool()
        timed = self._timing_granularity if self._collect_timings else None
        owners = [index for index, plan in enumerate(plans) for _ in plan.items]
        items = [item for plan in plans for item in plan.items]
        num_chunks = min(self.num_workers, len(items))
        bounds = [0] + [
            len(items) * k // num_chunks for k in range(1, num_chunks + 1)
        ]
        pending: List[Tuple[List[int], Future]] = []
        for lo, hi in zip(bounds, bounds[1:]):
            # Each round the chunk touches ships its start model once.
            rounds: List[int] = []
            rows: List[int] = []
            for owner in owners[lo:hi]:
                if not rounds or rounds[-1] != owner:
                    rounds.append(owner)
                rows.append(len(rounds) - 1)
            starts = tuple(plans[index].start_model for index in rounds)
            future = pool.submit(
                _run_chunk, starts, tuple(items[lo:hi]), tuple(rows), timed
            )
            pending.append((owners[lo:hi], future))
        results: List[RoundResults] = [{} for _ in plans]
        for chunk_owners, future in pending:
            try:
                pairs, timings = future.result()
            except Exception as exc:
                # A worker raised (or the pool broke, orphaning every
                # future).  Cancel what has not started, tear the pool
                # down and recycle it so the *next* step gets a fresh
                # pool instead of hanging on dead processes.
                for _owners, other in pending:
                    other.cancel()
                self._shutdown_pool()
                failed = getattr(exc, "work_item", None)
                if failed is None:
                    failed = plans[chunk_owners[0]]
                raise WorkerError(failed.step, failed.edge, exc) from exc
            for index, (device_id, result) in zip(chunk_owners, pairs):
                results[index][device_id] = result
            self._timings.extend(timings)
        return results

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def close(self) -> None:
        self._shutdown_pool()
