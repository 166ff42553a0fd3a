"""Process-pool backend: true multi-core parallelism for CPU-bound updates.

Shipping discipline (what crosses the process boundary, and how often):

- once per worker, at pool start: the :class:`WorkerContext` — scratch
  model architecture + weights and every device's dataset — via the
  pool initializer;
- once per worker chunk per step: the flattened start model ``w^t_n``
  of each edge round from the chunk's first to its last (each once), a
  per-item row index into them, and the (tiny, scalar-only) work items;
- back per item: the device's flattened final model and its gradient
  statistics.

A step's items, in plan order, are split into at most ``num_workers``
contiguous chunks across edge rounds
(:func:`~repro.runtime.base.split_step`), so a step submits at most
``num_workers`` futures and each worker runs its chunk as one stacked
population pass (:meth:`WorkerContext.run_items`) however the
participants spread over edges — the serial backend's whole step,
split.  Results are routed back to their round by position and keyed
by device id, so completion order never matters; combined with
per-``(step, edge, device)`` seed streams and stacked slices that
never read another row, this backend is bit-identical to
:class:`~repro.runtime.serial.SerialExecutor`.

The context's scratch model crosses the process boundary (pickle on
spawn platforms, fork inheritance otherwise) *without* its flat-alias
state — ``Model.__getstate__`` drops it — so each worker re-aliases
parameters into its own canonical flat buffer on the first local
update it runs.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from typing import List, Optional

from repro.runtime.base import (
    ChunkOutcome,
    Executor,
    StepChunk,
    WorkerError,
    resolve_num_workers,
    run_chunk,
)
from repro.runtime.work_items import WorkerContext

#: Per-process context installed by the pool initializer.
_WORKER_CONTEXT: Optional[WorkerContext] = None


def _init_worker(context: WorkerContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_chunk(chunk: StepChunk, timed: Optional[str]) -> ChunkOutcome:
    """Worker-side entry: :func:`~repro.runtime.base.run_chunk` on this
    worker's context, timed on the worker's own clock."""
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - defensive
        raise RuntimeError("worker pool was not initialized with a context")
    worker = multiprocessing.current_process().name
    return run_chunk(context, chunk, timed, worker)


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

    def _run_chunks(
        self, chunks: List[StepChunk], timed: Optional[str]
    ) -> List[ChunkOutcome]:
        pool = self._ensure_pool()
        pending = [pool.submit(_run_chunk, chunk, timed) for chunk in chunks]
        outcomes: List[ChunkOutcome] = []
        for chunk, future in zip(chunks, pending):
            try:
                outcomes.append(future.result())
            except Exception as exc:
                # A worker raised (or the pool broke, orphaning every
                # future).  Cancel what has not started, tear the pool
                # down and recycle it so the *next* step gets a fresh
                # pool instead of hanging on dead processes.
                for other in pending:
                    other.cancel()
                self._shutdown_pool()
                failed = getattr(exc, "work_item", None) or chunk.items[0]
                raise WorkerError(failed.step, failed.edge, exc) from exc
        return outcomes

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def close(self) -> None:
        self._shutdown_pool()
