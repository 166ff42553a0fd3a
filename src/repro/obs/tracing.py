"""Hierarchical span tracing for the HFL engine.

A :class:`SpanTracer` records wall-clock spans on a monotonic clock
(:func:`time.perf_counter`) and nests them through an explicit stack, so
the trainer's instrumentation produces the natural hierarchy

.. code-block:: text

    cloud_step(t)
    ├── plan
    ├── execute
    │   └── edge_round(edge=n)            # synthesized from worker timings
    │       └── device_update(device=m, worker=...)
    ├── finish
    ├── sync                              # on sync steps
    └── eval                              # on evaluation points

Two kinds of spans exist:

- **live spans** opened with :meth:`SpanTracer.span` (a context manager)
  or the :meth:`SpanTracer.traced` decorator — start/end read the
  monotonic clock in the tracing thread — or with
  :meth:`SpanTracer.begin` / :meth:`SpanTracer.end` from clock readings
  the caller already took (the engine's phase scopes);
- **synthesized spans** added with :meth:`SpanTracer.add_span` from a
  duration measured elsewhere (a pool worker's own clock).  Their
  ``start`` is the duration-stacked offset within the parent, which
  preserves the hierarchy and per-worker attribution without assuming
  worker clocks share an epoch (marked ``synthesized=True``).

When tracing is disabled the module-level :data:`NULL_TRACER` is used:
its ``span()`` returns one shared no-op context manager and every other
method is a no-op, so an un-traced run pays a single attribute load and
truthiness check per instrumentation point.

Span timestamps are observability, not run state: nothing here feeds
any RNG or ``state_dict``, so tracing cannot perturb the engine's
bit-identical determinism contract.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

__all__ = ["Span", "SpanTracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One recorded span: identity, hierarchy, timing and attributes."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start",
        "duration",
        "attrs",
        "synthesized",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        duration: float,
        attrs: Dict[str, Any],
        synthesized: bool = False,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = attrs
        self.synthesized = synthesized

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible record (one line of the trace JSONL)."""
        record: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.synthesized:
            record["synthesized"] = True
        if self.attrs:
            record.update(self.attrs)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"duration={self.duration:.6f})"
        )


class SpanTracer:
    """Collects a hierarchy of wall-clock spans on a monotonic clock."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Open spans, innermost last: (span_id, name, start, attrs).
        self._open: List[tuple] = []
        self._counter = 0
        self._clock = time.perf_counter
        #: All span starts are reported relative to tracer creation, so
        #: traces from different runs are comparable.
        self._epoch = self._clock()
        #: Duration-stacking cursor per parent for synthesized children.
        self._synth_cursor: Dict[int, float] = {}

    def _next_id(self) -> int:
        self._counter += 1
        return self._counter

    @property
    def current_id(self) -> Optional[int]:
        """Span id of the innermost open span (None at top level)."""
        return self._open[-1][0] if self._open else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SimpleNamespace]:
        """Open a live child span of the current span (context manager
        yielding an object whose ``span_id`` names the span)."""
        opened = SimpleNamespace(span_id=self.begin(name, self._clock(), **attrs))
        try:
            yield opened
        finally:
            self.end(self._clock())

    def begin(self, name: str, start: float, **attrs: Any) -> int:
        """Open a child span of the current span at clock reading ``start``
        (a :func:`time.perf_counter` value taken by the caller)."""
        span_id = self._next_id()
        self._open.append((span_id, name, start, attrs))
        return span_id

    def end(self, end: float) -> None:
        """Close the innermost open span at clock reading ``end``."""
        span_id, name, start, attrs = self._open.pop()
        self.spans.append(
            Span(
                span_id,
                self.current_id,
                name,
                start - self._epoch,
                end - start,
                attrs,
            )
        )

    def add_span(
        self,
        name: str,
        duration: float,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[int]:
        """Record a synthesized span from an externally measured duration.

        ``parent_id`` defaults to the innermost open span.  Synthesized
        siblings under one parent are laid out back-to-back from the
        parent's start (worker wall-clocks share no epoch with the
        tracer, so only durations are trusted).  Returns the span id so
        callers can hang further children off it.
        """
        if duration < 0:
            raise ValueError(f"span duration must be >= 0, got {duration}")
        if parent_id is None:
            parent_id = self.current_id
        offset = self._synth_cursor.get(parent_id, 0.0) if parent_id else 0.0
        span_id = self._next_id()
        self.spans.append(
            Span(
                span_id,
                parent_id,
                name,
                offset,
                duration,
                attrs,
                synthesized=True,
            )
        )
        if parent_id is not None:
            self._synth_cursor[parent_id] = offset + duration
        return span_id

    def observe_worker_timings(self, timings: Iterable[Any]) -> None:
        """Synthesize ``edge_round`` → ``device_update`` spans under the
        current span from drained :class:`~repro.runtime.base.WorkerTiming`
        rows (durations from each worker's own clock).  Rows are grouped
        by edge; a round-granular step chunk spanning several edges
        (``edge=-1``) becomes one ``edge_round`` span with ``edge=-1``."""
        by_edge: Dict[int, list] = {}
        for wt in timings:
            by_edge.setdefault(wt.edge, []).append(wt)
        for edge_id in sorted(by_edge):
            edge_timings = by_edge[edge_id]
            edge_span = self.add_span(
                "edge_round",
                sum(wt.seconds for wt in edge_timings),
                edge=edge_id,
                devices=len(edge_timings),
            )
            for wt in edge_timings:
                self.add_span(
                    "device_update",
                    wt.seconds,
                    parent_id=edge_span,
                    device=wt.device,
                    worker=wt.worker,
                )

    def traced(self, name: str, **attrs: Any) -> Callable:
        """Decorator form of :meth:`span` for whole-function spans."""

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- export --------------------------------------------------------------

    def to_list(self) -> List[Dict[str, Any]]:
        """Every recorded span as a JSON-compatible dict, in end order."""
        return [span.to_dict() for span in self.spans]

    def write_jsonl(self, path: Union[str, Path]) -> None:
        """Dump the trace as one span-dict per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span.to_dict()) + "\n")

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        """Direct children of ``span_id`` (None ⇒ root spans)."""
        return [s for s in self.spans if s.parent_id == span_id]

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span with the given name."""
        return sum(s.duration for s in self.spans if s.name == name)


#: The shared no-op span of :class:`NullTracer`.
_NULL_SPAN = nullcontext(SimpleNamespace(span_id=None))


class NullTracer(SpanTracer):
    """Zero-cost tracer used when tracing is disabled.

    Every instrumentation point degrades to returning a shared no-op
    context manager; nothing is allocated or recorded.
    """

    enabled = False

    def span(self, name: str, **attrs: Any):  # type: ignore[override]
        return _NULL_SPAN

    def begin(self, name, start, **attrs):
        return None

    def end(self, end):
        return None

    def add_span(self, name, duration, parent_id=None, **attrs):
        return None

    def traced(self, name: str, **attrs: Any) -> Callable:
        def decorate(fn: Callable) -> Callable:
            return fn

        return decorate


#: The process-wide disabled tracer (safe to share: it holds no state).
NULL_TRACER = NullTracer()
