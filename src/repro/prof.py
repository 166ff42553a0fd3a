"""Low-level profiling site hooks.

This module is the dependency-free rendezvous point between the
instrumented hot paths (``repro.mobility``, ``repro.hfl.edge``, the
executors) and the continuous profiler in :mod:`repro.obs.profiler`.
The low layers cannot import ``repro.obs`` directly — the obs package
sits *above* ``repro.hfl`` (its telemetry bridge imports the trainer's
telemetry types) — so the switch lives in a tiny stdlib-only module
near the bottom of the import graph.

Instrumented call sites do::

    from repro.prof import profile_site

    with profile_site("mobility", "membership_index", edge=edge_id):
        ... hot work ...

When no profiler is installed (the default), :func:`profile_site`
returns a shared no-op context manager: the cost is one global read and
one function call per site entry, which is noise next to the array
work the sites wrap (a membership scan, an edge aggregation).  When a
profiler is active the site records wall and CPU seconds into it,
tagged with the profiler's current phase.

The sink installed via :func:`set_profiler` is duck-typed: anything
with a ``record_site(subsystem, site, wall, cpu, attrs)`` method works.
Profiler state is process-local by design — a forked or spawned worker
starts with whatever was captured at fork time, so worker-side code
must treat the hooks as optional (and
:class:`repro.obs.profiler.Profiler` drops its buffers on pickle).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "profile_site",
    "profiler_active",
    "set_profiler",
    "get_profiler",
]

_PROFILER: Optional[object] = None


def set_profiler(sink: Optional[object]) -> None:
    """Install (or, with ``None``, remove) the process-global profiler."""
    global _PROFILER
    _PROFILER = sink


def get_profiler() -> Optional[object]:
    """The currently installed profiler sink, or ``None``."""
    return _PROFILER


def profiler_active() -> bool:
    """True when a profiler sink is installed in this process."""
    return _PROFILER is not None


class _NullSite:
    """Shared zero-state no-op context manager for inactive sites."""

    __slots__ = ()

    def __enter__(self) -> "_NullSite":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SITE = _NullSite()


@contextmanager
def _timed_site(sink: object, subsystem: str, site: str, attrs: dict) -> Iterator[None]:
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        yield
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        sink.record_site(subsystem, site, wall, cpu, attrs)


def profile_site(subsystem: str, site: str, **attrs: object):
    """Time a hot-path site under the active profiler, if any.

    Returns a context manager.  ``attrs`` may carry per-call attribution
    labels (``edge=...``, ``step=...``); they are ignored when no
    profiler is installed.
    """
    sink = _PROFILER
    if sink is None:
        return _NULL_SITE
    return _timed_site(sink, subsystem, site, attrs)
