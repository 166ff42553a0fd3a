"""Pluggable parallel execution backends for the HFL engine.

The trainer describes each time step's work as edge-round plans of
picklable device work items; an :class:`Executor` backend decides how
they run — serially (the default) or on a process pool.  Both
backends are bit-identical for a fixed master seed because work-item
randomness is derived from ``(seed, step, edge, device)`` named
streams, never from worker scheduling.

Quickstart::

    from repro.runtime import make_executor

    trainer = HFLTrainer(..., executor=make_executor("process", num_workers=4))
    result = trainer.run(num_steps=200)

or, equivalently, via configuration::

    config = HFLConfig(executor="process", num_workers=4)
"""

from repro.runtime.base import (
    EXECUTOR_KINDS,
    Executor,
    WorkerError,
    WorkerTiming,
    make_executor,
    resolve_num_workers,
)
from repro.runtime.work_items import (
    EdgeRoundPlan,
    LocalUpdateItem,
    RoundResults,
    WorkerContext,
)
from repro.runtime.serial import SerialExecutor
from repro.runtime.processes import ProcessExecutor

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "WorkerError",
    "WorkerTiming",
    "make_executor",
    "resolve_num_workers",
    "EdgeRoundPlan",
    "LocalUpdateItem",
    "RoundResults",
    "WorkerContext",
    "SerialExecutor",
    "ProcessExecutor",
]
