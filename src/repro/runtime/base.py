"""Executor abstraction: how the HFL engine runs its parallel work.

Algorithm 1 is embarrassingly parallel at two levels — edges are
independent within a time step, and sampled devices within an edge run
their I local SGD steps independently.  An :class:`Executor` receives,
once per time step, every edge's :class:`~repro.runtime.work_items
.EdgeRoundPlan` and returns the per-round local-update results; the
backend decides how the items are scheduled:

- :class:`~repro.runtime.serial.SerialExecutor` — in-process loop, the
  default and the reference semantics;
- :class:`~repro.runtime.processes.ProcessExecutor` — a process pool;
  device datasets and the scratch model ship once per worker, each
  step's items split into at most one chunk per worker across edge
  rounds, with the chunk's edge models once per chunk.

All backends produce bit-identical results for a fixed master seed
because every work item derives its own named random stream from
``(seed, step, edge, device)`` — see :mod:`repro.runtime.work_items`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, NamedTuple, Optional, Sequence

from repro.runtime.work_items import EdgeRoundPlan, RoundResults, WorkerContext

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
    and a record covers one edge round (serial) or one worker's
    chunk of the step (process).  A process chunk may span several
    edge rounds; its record then has ``edge=-1``, so consumers that
    group by edge (the profiler's per-edge shares, the tracer's
    ``edge_round`` spans) see it as one ``-1`` group.  Timings are
    observability, not results: they never cross into aggregation, RNG
    streams or checkpoints.
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


class Executor(ABC):
    """Runs the local-update work of HFL time steps.

    Life cycle: :meth:`bind` once with the trainer's
    :class:`WorkerContext`, then :meth:`run_step` once per time step,
    then :meth:`close` (or use the executor as a context manager).
    Binding again replaces the context (worker pools are recycled).
    """

    #: Backend identifier (one of :data:`EXECUTOR_KINDS`).
    name: str = "executor"

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

    @abstractmethod
    def run_step(self, plans: Sequence[EdgeRoundPlan]) -> List[RoundResults]:
        """Execute every plan's items; results align with ``plans``.

        Each returned dict maps device id → :class:`LocalUpdateResult`
        for exactly the devices of the corresponding plan.  The call is
        a barrier: all items complete before it returns.

        Ownership: a backend may reuse the returned *list* as a per-step
        buffer (the serial backend does); the per-round dicts and result
        objects inside are fresh every step.  Callers that retain the
        list across steps must copy it.
        """

    # -- worker-timing attribution (observability opt-in) --------------------

    def enable_worker_timings(self, granularity: str = "item") -> None:
        """Start collecting :class:`WorkerTiming` records.

        Off by default: the reference path pays nothing.  When enabled,
        each backend measures work where it executes and the caller
        drains the records with :meth:`drain_worker_timings` after each
        :meth:`run_step`.

        ``granularity="item"`` times every device's local update
        individually — full attribution, but it forces the backends off
        their fused/population-batched round paths, which costs real
        wall-clock.  ``granularity="round"`` times whole edge rounds
        (one clock pair per round, or per worker chunk of the step on
        the process pool) on top of the unchanged fast path — near-zero
        overhead, per-edge attribution only (``device=-1``; ``edge=-1``
        for a chunk spanning edges).  The continuous profiler uses
        ``"round"``; span tracing, which needs per-device spans, uses
        ``"item"``.
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
