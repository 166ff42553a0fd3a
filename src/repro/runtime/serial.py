"""The serial backend: the whole step as one chunk, run in process."""

from __future__ import annotations

from typing import List, Optional

from repro.runtime.base import ChunkOutcome, Executor, StepChunk, run_chunk


class SerialExecutor(Executor):
    """Run a step's items in the calling thread as one chunk.

    The chunk holds every item of the step in plan order, across edge
    rounds, and runs as one stacked population pass in which each row
    starts from its own edge's model (a step that cannot stack as a
    whole runs one round at a time; see
    :meth:`~repro.runtime.work_items.WorkerContext.run_items`).  It uses
    the trainer's own scratch model directly (no clone) — and with it
    the trainer model's canonical flat parameter buffer.  The process
    backend is bit-identical to this one for the same master seed.
    """

    name = "serial"

    def _run_chunks(
        self, chunks: List[StepChunk], timed: Optional[str]
    ) -> List[ChunkOutcome]:
        return [run_chunk(self.context, chunk, timed, "main") for chunk in chunks]
