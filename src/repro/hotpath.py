"""Global switch between the optimized hot paths and their reference twins.

The engine keeps two implementations of every hot-path optimization
introduced by the perf pass (DESIGN.md §9): the *optimized* path
(membership-index caching, fused evaluation, reusable nn workspaces,
index-subtract loss backward, …) and the original *reference* path it
replaced.  Both produce bit-identical results for a fixed seed; the
reference path exists so that claim stays checkable forever —
``benchmarks/bench_hotpath.py --smoke`` runs the same workload down
both paths and asserts the histories match exactly.

The switch is a process-global flag, not per-object state, because the
optimizations span layers (mobility, nn, hfl, runtime) and threading a
flag through every constructor would couple them all to this concern.
Worker processes inherit the flag at pool start-up (fork) — flip it
before building a trainer, not mid-run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_ENABLED = True


def hotpath_enabled() -> bool:
    """Whether the optimized hot paths are active (the default)."""
    return _ENABLED


def set_hotpath_enabled(enabled: bool) -> None:
    """Flip between the optimized and reference implementations."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def hotpath_disabled() -> Iterator[None]:
    """Run a block on the pre-optimization reference path.

    Used by the equivalence tests and ``bench_hotpath.py`` to produce
    the baseline the optimized path must match bit for bit.
    """
    previous = _ENABLED
    set_hotpath_enabled(False)
    try:
        yield
    finally:
        set_hotpath_enabled(previous)
