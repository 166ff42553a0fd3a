"""In-memory span recorder and the class-level wrappers that feed it.

The traced benchmark run times calls into each ``repro`` module from
this file, outside ``src/``: :func:`instrument` replaces public
functions and methods with wrappers that open a span around the
original call.  Wrappers sit on classes and modules, not on objects, so
objects built inside the engine (the service coordinator's trainers,
executors and samplers) are covered too.

Spans nest through a per-thread parent stack.  A span's *self* time is
its wall time minus the wall time of the wrapped calls it made, so the
self times of all names add up to the attributed share of the run.
Only per-name aggregates (calls, total, self) are kept, which bounds
memory however long a run is.

Forked children (process-pool workers) inherit the wrappers but not the
recording: the recorder switches itself off after a fork, so a worker
pays one flag check per wrapped call and its spans are never mixed into
the parent's tables.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: Per-name aggregate: [calls, total seconds, self seconds].
Row = List[float]
Table = Dict[str, Row]


class _ThreadState:
    __slots__ = ("stack", "table", "counters")

    def __init__(self) -> None:
        # One entry per open span: the wall time its children used so far.
        self.stack: List[float] = []
        self.table: Table = {}
        self.counters: Dict[str, float] = {}


class SpanRecorder:
    """Aggregates nested spans per name, per thread, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: Training windows: (wall seconds, span table inside the window).
        self.windows: List[Tuple[float, Table]] = []
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.enabled = False

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; re-raises its errors."""
        if not self.enabled:
            return fn(*args, **kwargs)
        state = self._state()
        stack = state.stack
        stack.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            row = state.table.get(name)
            if row is None:
                row = state.table[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - children

    def wrap(self, name: str, fn: Callable) -> Callable:
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return wrapper

    def add(self, name: str, value: float) -> None:
        """Accumulate a counter (work done, bytes written, busy seconds)."""
        if not self.enabled:
            return
        counters = self._state().counters
        counters[name] = counters.get(name, 0.0) + value

    def window(self, steps: Iterator) -> Iterator:
        """Pass ``steps`` through, recording it as one training window.

        The window runs from the first step requested to the generator's
        end; its span table holds only the spans recorded meanwhile.
        """
        if not self.enabled:
            yield from steps
            return
        before = self.table()
        start = self.clock()
        try:
            yield from steps
        finally:
            wall = self.clock() - start
            self.windows.append((wall, subtract(self.table(), before)))

    # -- reading -------------------------------------------------------------

    def table(self) -> Table:
        """Span aggregates merged over every thread."""
        merged: Table = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, row in list(state.table.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    into[i] += row[i]
        return merged

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in list(state.counters.items()):
                merged[name] = merged.get(name, 0.0) + value
        return merged

    def report(self) -> dict:
        """JSON-safe dump: whole-run table, counters and training windows."""
        return {
            "table": self.table(),
            "counters": self.counters(),
            "windows": [
                {"wall_s": wall, "table": table} for wall, table in self.windows
            ],
        }


def subtract(after: Table, before: Table) -> Table:
    """Per-name difference of two cumulative tables (rows that moved)."""
    diff: Table = {}
    for name, row in after.items():
        base = before.get(name, [0, 0.0, 0.0])
        delta = [row[i] - base[i] for i in range(3)]
        if delta[0]:
            diff[name] = delta
    return diff


def coverage(window_wall: float, window_table: Table) -> float:
    """Share of a training window's wall time attributed to named spans."""
    if window_wall <= 0:
        return 0.0
    return sum(row[2] for row in window_table.values()) / window_wall


# -- installation --------------------------------------------------------------


def _subclasses(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls not in found:  # a diamond must not be wrapped twice
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def _wrap_method(recorder: SpanRecorder, cls: type, attr: str, name: str, undo: list) -> None:
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, staticmethod):
        replacement = staticmethod(recorder.wrap(name, raw.__func__))
    else:
        if getattr(raw, "__isabstractmethod__", False):
            return
        replacement = recorder.wrap(name, raw)
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them again.

    Span names follow the ladder ``<module>.<site>``; the per-layer
    metrics derive from them in :func:`layer_metrics`.
    """
    import repro.core.mach  # noqa: F401  (registers the MACH sampler)
    import repro.runtime  # noqa: F401  (registers every executor)
    import repro.sampling  # noqa: F401
    import repro.topology  # noqa: F401
    from repro.churn.process import ChurnProcess
    from repro.data.dataset import Dataset
    from repro.experiments import runner
    from repro.faults.checkpoint import TrainerCheckpoint
    from repro.faults.model import FaultModel
    from repro.hfl import trainer as trainer_module
    from repro.hfl.device import Device
    from repro.hfl.edge import Edge
    from repro.hfl.trainer import HFLTrainer
    from repro.mobility.streaming import StreamingTrace
    from repro.mobility.trace import MobilityTrace
    from repro.nn import layers
    from repro.nn.loss import SoftmaxCrossEntropy
    from repro.nn.model import Model
    from repro.nn.population import PopulationModel
    from repro.obs.health import HealthMonitor
    from repro.runtime.base import Executor
    from repro.sampling.base import Sampler
    from repro.topology.base import AggregationStrategy, Topology

    undo: list = []
    methods = [
        ("nn.conv2d.forward", layers.Conv2d, "forward"),
        ("nn.conv2d.backward", layers.Conv2d, "backward"),
        ("nn.maxpool2d.forward", layers.MaxPool2d, "forward"),
        ("nn.maxpool2d.backward", layers.MaxPool2d, "backward"),
        ("nn.dense.forward", layers.Dense, "forward"),
        ("nn.dense.backward", layers.Dense, "backward"),
        ("nn.relu", layers.ReLU, "forward"),
        ("nn.relu", layers.ReLU, "backward"),
        ("nn.flatten", layers.Flatten, "forward"),
        ("nn.flatten", layers.Flatten, "backward"),
        ("nn.loss", SoftmaxCrossEntropy, "forward"),
        ("nn.loss", SoftmaxCrossEntropy, "backward"),
        ("nn.loss_and_grad", Model, "loss_and_grad"),
        ("nn.population.local_updates", PopulationModel, "local_updates"),
        ("hfl.device_update", Device, "local_update"),
        ("hfl.draw_participation", Edge, "draw_participation"),
        ("hfl.edge_aggregate", Edge, "aggregate"),
        ("mobility.devices_at", MobilityTrace, "devices_at"),
        ("mobility.devices_at", StreamingTrace, "devices_at"),
        ("mobility.counts_at", MobilityTrace, "counts_at"),
        ("mobility.counts_at", StreamingTrace, "counts_at"),
        ("mobility.assignment_row", MobilityTrace, "assignment_row"),
        ("mobility.assignment_row", StreamingTrace, "assignment_row"),
        ("data.sample_batches", Dataset, "sample_batches"),
        ("churn.step", ChurnProcess, "step"),
        ("obs.health", HealthMonitor, "observe"),
        ("faults.checkpoint_snapshot", HFLTrainer, "make_checkpoint"),
    ]
    for name, cls, attr in methods:
        _wrap_method(recorder, cls, attr, name, undo)

    # Abstract surfaces: wrap every implementation that is defined.
    hierarchies = [
        ("sampling.probabilities", Sampler, "probabilities"),
        ("sampling.observe", Sampler, "observe_participation"),
        ("sampling.observe", Sampler, "observe_failure"),
        ("sampling.sync", Sampler, "on_global_sync"),
        ("topology.sync", Topology, "sync_plan"),
        ("topology.sync", AggregationStrategy, "apply"),
        ("faults.screen", FaultModel, "upload_fault"),
        ("faults.screen", FaultModel, "corrupt_payload"),
        ("faults.sync", FaultModel, "sync_outcome"),
    ]
    for name, base, attr in hierarchies:
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                _wrap_method(recorder, cls, attr, name, undo)

    # Module functions, patched where their callers look them up.
    functions = [
        ("nn.im2col", layers, "im2col"),
        ("nn.col2im", layers, "col2im"),
        ("hfl.evaluate", trainer_module, "evaluate"),
        ("data.build", runner, "make_federated_task"),
        ("mobility.build", runner, "build_trace"),
    ]
    for name, module, attr in functions:
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original))

    _wrap_executors(recorder, Executor, undo)
    _wrap_special(recorder, HFLTrainer, TrainerCheckpoint, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _wrap_executors(recorder: SpanRecorder, base: type, undo: list) -> None:
    """``runtime.execute`` spans plus worker busy time and update counts.

    Worker time comes from the executor's own round-granular timings
    (``enable_worker_timings("round")`` / ``drain_worker_timings()``),
    measured where the work ran, including inside pool workers.
    """
    for cls in _subclasses(base):
        if "run_step" not in cls.__dict__:
            continue
        original = cls.__dict__["run_step"]
        if getattr(original, "__isabstractmethod__", False):
            continue

        def run_step(self, plans, _original=original):
            if not self.collects_worker_timings:
                self.enable_worker_timings("round")
            start = recorder.clock()
            try:
                return recorder.call("runtime.execute", _original, self, plans)
            finally:
                wall = recorder.clock() - start
                busy = sum(t.seconds for t in self.drain_worker_timings())
                recorder.add("runtime.local_updates", sum(len(p.items) for p in plans))
                recorder.add("runtime.worker_busy_s", busy)
                recorder.add(
                    "runtime.worker_slots_s", wall * getattr(self, "num_workers", 1)
                )

        undo.append((cls, "run_step", original))
        cls.run_step = functools.wraps(original)(run_step)


def _wrap_special(recorder: SpanRecorder, trainer_cls: type, checkpoint_cls: type, undo: list) -> None:
    steps = trainer_cls.__dict__["steps"]

    def windowed_steps(self, *args, **kwargs):
        return recorder.window(steps(self, *args, **kwargs))

    undo.append((trainer_cls, "steps", steps))
    trainer_cls.steps = functools.wraps(steps)(windowed_steps)

    save = checkpoint_cls.__dict__["save"]

    def counted_save(self, path):
        written = recorder.call("faults.checkpoint_save", save, self, path)
        recorder.add("faults.checkpoint_bytes", os.path.getsize(written))
        return written

    undo.append((checkpoint_cls, "save", save))
    checkpoint_cls.save = functools.wraps(save)(counted_save)


# -- per-layer metrics ---------------------------------------------------------

#: Span names whose self time is reported as ``<name>_s``.  The setup
#: spans (``data.build``, ``mobility.build``) are taken over the whole
#: run; every other span only inside the training windows.
SELF_TIME_SPANS = (
    "nn.conv2d.forward", "nn.conv2d.backward", "nn.im2col", "nn.col2im",
    "nn.maxpool2d.forward", "nn.maxpool2d.backward", "nn.dense.forward",
    "nn.dense.backward", "nn.relu", "nn.flatten", "nn.loss",
    "nn.population.local_updates", "hfl.device_update", "hfl.evaluate",
    "hfl.draw_participation", "hfl.edge_aggregate", "mobility.devices_at",
    "mobility.assignment_row", "mobility.counts_at", "sampling.probabilities",
    "sampling.observe", "sampling.sync", "topology.sync", "faults.screen",
    "faults.sync", "faults.checkpoint_snapshot", "faults.checkpoint_save",
    "churn.step", "obs.health", "data.sample_batches",
)
CALL_COUNT_SPANS = (
    "mobility.devices_at", "sampling.probabilities", "sampling.observe",
    "hfl.evaluate",
)
SETUP_SPANS = ("data.build", "mobility.build")


def layer_metrics(report: dict) -> Dict[str, float]:
    """Per-layer metrics (values only) from a :meth:`SpanRecorder.report`."""
    wall = sum(w["wall_s"] for w in report["windows"])
    window: Table = {}
    for w in report["windows"]:
        for name, row in w["table"].items():
            into = window.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                into[i] += row[i]
    whole = report["table"]
    counters = report["counters"]

    def row(table: Table, name: str) -> Row:
        return table.get(name, [0, 0.0, 0.0])

    metrics: Dict[str, float] = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_s"] = row(window, name)[2]
    for name in CALL_COUNT_SPANS:
        metrics[f"{name}_calls"] = row(window, name)[0]
    for name in SETUP_SPANS:
        metrics[f"{name}_s"] = row(whole, name)[1]
    metrics["nn.loss_and_grad_self_s"] = row(window, "nn.loss_and_grad")[2]
    metrics["runtime.execute_s"] = row(window, "runtime.execute")[1]
    metrics["runtime.execute_self_s"] = row(window, "runtime.execute")[2]
    metrics["runtime.local_updates"] = int(counters.get("runtime.local_updates", 0))
    busy = counters.get("runtime.worker_busy_s", 0.0)
    slots = counters.get("runtime.worker_slots_s", 0.0)
    metrics["runtime.worker_busy_s"] = busy
    metrics["runtime.worker_idle_share"] = 1.0 - busy / slots if slots else 0.0
    metrics["faults.checkpoint_saves"] = row(whole, "faults.checkpoint_save")[0]
    metrics["faults.checkpoint_bytes"] = int(counters.get("faults.checkpoint_bytes", 0))
    attributed = coverage(wall, window)
    metrics["hfl.trainer_self_s"] = wall * (1.0 - attributed)
    metrics["trace.coverage"] = attributed
    metrics["trace.train_wall_s"] = wall
    return metrics
