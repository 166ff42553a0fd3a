"""Continuous profiler: hierarchical wall/CPU timing with attribution.

:class:`Profiler` is the opt-in continuous-profiling layer of the obs
stack.  It aggregates three streams into one hierarchy of
``phase → subsystem → site`` records:

- **phase totals** reported by the trainer (plan / execute / finish /
  sync / eval / checkpoint), the same quantities the telemetry recorder
  tracks;
- **hot-path sites** self-reported through :func:`repro.prof.profile_site`
  by the mobility trace scan, ``Edge.aggregate`` and friends, tagged
  with the phase that was active when they ran;
- **worker timings** drained from the executors
  (:class:`repro.runtime.base.WorkerTiming`), attributed per
  (step, edge, device) under the synthetic
  ``execute/runtime/device_update`` site.

All clocks are observational (``perf_counter`` / ``process_time``); the
profiler never touches an RNG or model state, so enabling it cannot
perturb a run — the bit-identity contract is tested across both
executors.

Exports:

- :meth:`Profiler.hotspot_table` — aggregate rows sorted by wall time,
  with per-edge attribution and share-of-run;
- :meth:`Profiler.to_json` / :meth:`Profiler.write_json` — the full
  report (hotspots, per-phase totals, recent per-step records,
  allocation samples);
- :meth:`Profiler.collapsed_stacks` / :meth:`Profiler.write_collapsed`
  — ``frame;frame;frame <microseconds>`` lines consumable by standard
  flamegraph tooling (e.g. ``flamegraph.pl``, speedscope).

Optionally, ``alloc_every=K`` samples :mod:`tracemalloc` every K steps
(current/peak traced bytes plus the top allocation sites).  Allocation
tracing has real overhead, so it is off unless requested.

Profiler state is **transient**: like ``ConvWorkspace`` and the worker
context caches, accumulated records are dropped on pickle/deepcopy and
the copy starts empty with the same configuration.  A profiler is
installed process-globally via :meth:`activate` (see
:mod:`repro.prof`); forked pool workers therefore inherit an inert
copy, and their work is attributed through the worker-timing drain
instead.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro import prof as _prof

__all__ = ["Profiler", "SiteStat"]

SiteKey = Tuple[str, str, str]  # (phase, subsystem, site)


class SiteStat:
    """Aggregate wall/CPU totals for one (phase, subsystem, site)."""

    __slots__ = ("calls", "wall", "cpu", "per_edge", "per_worker")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.per_edge: Dict[str, float] = {}
        self.per_worker: Dict[str, float] = {}

    def add(self, wall: float, cpu: float, edge: Optional[object] = None,
            worker: Optional[str] = None) -> None:
        self.calls += 1
        self.wall += wall
        self.cpu += cpu
        if edge is not None:
            label = str(edge)
            self.per_edge[label] = self.per_edge.get(label, 0.0) + wall
        if worker is not None:
            self.per_worker[worker] = self.per_worker.get(worker, 0.0) + wall

    def to_dict(self) -> dict:
        out = {
            "calls": self.calls,
            "wall_seconds": self.wall,
            "cpu_seconds": self.cpu,
            "mean_seconds": self.wall / self.calls if self.calls else 0.0,
        }
        if self.per_edge:
            out["per_edge_seconds"] = dict(sorted(self.per_edge.items()))
        if self.per_worker:
            out["per_worker_seconds"] = dict(sorted(self.per_worker.items()))
        return out


class Profiler:
    """Opt-in continuous profiler; see the module docstring."""

    #: Everything except configuration is dropped on pickle/deepcopy.
    _CONFIG_ATTRS = ("alloc_every", "alloc_top", "max_step_records")

    def __init__(
        self,
        alloc_every: Optional[int] = None,
        alloc_top: int = 10,
        max_step_records: int = 256,
    ) -> None:
        if alloc_every is not None and alloc_every < 1:
            raise ValueError(f"alloc_every must be >= 1, got {alloc_every}")
        self.alloc_every = alloc_every
        self.alloc_top = int(alloc_top)
        self.max_step_records = int(max_step_records)
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        self._sites: Dict[SiteKey, SiteStat] = {}
        self._phases: Dict[str, SiteStat] = {}
        self._phase_stack: List[str] = []
        self._steps: Deque[dict] = deque(maxlen=self.max_step_records)
        self._current: Optional[dict] = None
        self._steps_observed = 0
        self._alloc_samples: List[dict] = []
        self._started_tracemalloc = False
        self._active = False

    # -- transience (pickle / deepcopy drop accumulated state) ---------------

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._CONFIG_ATTRS}

    def __setstate__(self, state: dict) -> None:
        for name in self._CONFIG_ATTRS:
            setattr(self, name, state[name])
        self._reset_buffers()

    # -- activation ----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def activate(self) -> "Profiler":
        """Install as the process-global profiler (see ``repro.prof``)."""
        if _prof.get_profiler() is self:
            return self
        _prof.set_profiler(self)
        self._active = True
        if self.alloc_every is not None:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        return self

    def deactivate(self) -> None:
        """Uninstall; stops tracemalloc if this profiler started it."""
        if _prof.get_profiler() is self:
            _prof.set_profiler(None)
        self._active = False
        if self._started_tracemalloc:
            import tracemalloc

            if tracemalloc.is_tracing():
                tracemalloc.stop()
            self._started_tracemalloc = False

    def __enter__(self) -> "Profiler":
        return self.activate()

    def __exit__(self, *exc: object) -> None:
        self.deactivate()

    # -- phase / step context ------------------------------------------------

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else "run"

    def push_phase(self, name: str) -> None:
        self._phase_stack.append(name)

    def pop_phase(self) -> None:
        if self._phase_stack:
            self._phase_stack.pop()

    @contextmanager
    def phase_scope(self, name: str) -> Iterator[None]:
        """Tag sites recorded inside the block with phase ``name``."""
        self.push_phase(name)
        try:
            yield
        finally:
            self.pop_phase()

    def begin_step(self, step: int) -> None:
        self._current = {"step": int(step), "wall_seconds": 0.0,
                         "phases": {}, "edges": {}}

    def end_step(self, step: int, seconds: float) -> None:
        record = self._current
        if record is None or record["step"] != int(step):
            record = {"step": int(step), "phases": {}, "edges": {}}
        record["wall_seconds"] = float(seconds)
        self._steps.append(record)
        self._current = None
        self._steps_observed += 1
        if self.alloc_every is not None and step % self.alloc_every == 0:
            self._sample_allocations(step)

    def record_phase(self, phase: str, wall: float, cpu: float = 0.0) -> None:
        """One timed engine phase (plan/execute/finish/sync/eval/...)."""
        stat = self._phases.get(phase)
        if stat is None:
            stat = self._phases[phase] = SiteStat()
        stat.add(wall, cpu)
        if self._current is not None:
            phases = self._current["phases"]
            phases[phase] = phases.get(phase, 0.0) + wall

    # -- ingestion -----------------------------------------------------------

    def record_site(self, subsystem: str, site: str, wall: float, cpu: float,
                    attrs: Optional[dict] = None) -> None:
        """Sink for :func:`repro.prof.profile_site` (duck-typed hook)."""
        attrs = attrs or {}
        key = (self.current_phase, str(subsystem), str(site))
        stat = self._sites.get(key)
        if stat is None:
            stat = self._sites[key] = SiteStat()
        stat.add(wall, cpu, edge=attrs.get("edge"))

    def observe_worker_timings(self, timings: Iterable[object]) -> None:
        """Attribute drained ``WorkerTiming`` rows to device updates.

        Worker clocks measure wall time inside the worker; CPU time is
        not available across process boundaries, so ``cpu_seconds``
        stays zero for this site.  At round granularity a step chunk
        that spans several edge rounds (the whole step on the serial
        executor, one worker's share on the process pool) arrives as
        one ``edge=-1`` row, so per-edge shares show it under ``"-1"``.
        """
        key = ("execute", "runtime", "device_update")
        stat = self._sites.get(key)
        if stat is None:
            stat = self._sites[key] = SiteStat()
        for t in timings:
            stat.add(t.seconds, 0.0, edge=t.edge, worker=t.worker)
            if self._current is not None and self._current["step"] == t.step:
                edges = self._current["edges"]
                label = str(t.edge)
                edges[label] = edges.get(label, 0.0) + t.seconds

    # -- allocation sampling -------------------------------------------------

    def _sample_allocations(self, step: int) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        current, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        top = []
        for stat in snapshot.statistics("lineno")[: self.alloc_top]:
            frame = stat.traceback[0]
            top.append({
                "site": f"{frame.filename}:{frame.lineno}",
                "size_kb": round(stat.size / 1024.0, 1),
                "count": stat.count,
            })
        self._alloc_samples.append({
            "step": int(step),
            "current_kb": round(current / 1024.0, 1),
            "peak_kb": round(peak / 1024.0, 1),
            "top": top,
        })

    @property
    def allocation_samples(self) -> List[dict]:
        return list(self._alloc_samples)

    # -- export --------------------------------------------------------------

    def total_phase_seconds(self) -> float:
        return sum(stat.wall for stat in self._phases.values())

    def hotspot_table(self) -> List[dict]:
        """Aggregate site rows sorted by wall time (descending).

        ``share`` is each site's fraction of the total phase wall time
        (falling back to total site time when no phases were recorded).
        """
        denom = self.total_phase_seconds()
        if denom <= 0.0:
            denom = sum(stat.wall for stat in self._sites.values())
        rows = []
        for (phase, subsystem, site), stat in self._sites.items():
            row = {"phase": phase, "subsystem": subsystem, "site": site}
            row.update(stat.to_dict())
            row["share"] = stat.wall / denom if denom > 0 else 0.0
            rows.append(row)
        rows.sort(key=lambda r: (-r["wall_seconds"], r["phase"],
                                 r["subsystem"], r["site"]))
        return rows

    def phase_table(self) -> List[dict]:
        rows = []
        for phase, stat in sorted(self._phases.items()):
            row = {"phase": phase}
            row.update(stat.to_dict())
            rows.append(row)
        return rows

    def to_json(self) -> dict:
        return {
            "config": {name: getattr(self, name)
                       for name in self._CONFIG_ATTRS},
            "steps_observed": self._steps_observed,
            "total_phase_seconds": self.total_phase_seconds(),
            "phases": self.phase_table(),
            "hotspots": self.hotspot_table(),
            "recent_steps": list(self._steps),
            "allocations": self.allocation_samples,
        }

    def write_json(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")

    def collapsed_stacks(self) -> List[str]:
        """Flamegraph-compatible collapsed stacks.

        One line per frame path, ``frame;frame;... <value>``, value in
        integer microseconds.  Phase frames carry their *self* time
        (phase total minus the site time attributed inside them) so the
        stack totals add up; per-edge attribution appears as a child
        frame of its site.
        """
        lines: List[str] = []
        site_by_phase: Dict[str, float] = {}
        for (phase, subsystem, site), stat in sorted(self._sites.items()):
            site_by_phase[phase] = site_by_phase.get(phase, 0.0) + stat.wall
            base = f"run;{phase};{subsystem};{site}"
            if stat.per_edge:
                attributed = 0.0
                for edge, wall in sorted(stat.per_edge.items()):
                    lines.append(f"{base};edge_{edge} {int(wall * 1e6)}")
                    attributed += wall
                rest = stat.wall - attributed
                if rest > 0:
                    lines.append(f"{base} {int(rest * 1e6)}")
            else:
                lines.append(f"{base} {int(stat.wall * 1e6)}")
        for phase, stat in sorted(self._phases.items()):
            self_wall = stat.wall - site_by_phase.get(phase, 0.0)
            if self_wall > 0:
                lines.append(f"run;{phase} {int(self_wall * 1e6)}")
        return lines

    def write_collapsed(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = "\n".join(self.collapsed_stacks())
        path.write_text(text + ("\n" if text else ""))
