"""The benchmark's workloads (why each was chosen: ``BENCHMARK.json``).

Every workload is a closed loop with one client: the next step (or
round) is requested only after the previous one completed.  Each uses
at most two workers and two connections, matching the two-CPU host its
sizes were chosen on.

Step counts scale with ``--seconds``: ``steps_per_second`` is the rate
measured on the reference host (2 CPUs), and ``min_steps`` keeps at
least ten step gaps beyond the 95th percentile and leaves room to reach
the target accuracy on every seed.

The image workloads use the markov trace instead of their preset's
telecom trace.  On the telecom trace how crowded each edge is depends on
the seed, so the number of participants per step, and with it the work
per step, swings by half between seeds; on the markov trace it stays
within a few percent, so a change in step time means a change in the
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: Dict[str, object]
    steps_per_second: float
    min_steps: int
    #: Accuracy every seed must reach within the run.  The image presets'
    #: own targets (0.93 and 0.80) take over 200 steps on some seeds, so
    #: those two workloads check a lower one.
    target_accuracy: float
    #: Set-ups per run (``setup_s`` is their median); more where one is
    #: only tens of milliseconds, which host noise would otherwise swamp.
    setups: int = 3
    service: bool = False
    #: Toy-size overrides for ``--smoke`` (steps included).
    smoke: Dict[str, object] = field(default_factory=dict)

    def steps(self, seconds: float) -> int:
        return max(self.min_steps, math.ceil(seconds * self.steps_per_second))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mnist-cnn",
            preset="mnist-bench",
            overrides={"trace_kind": "markov", "executor": "serial"},
            steps_per_second=16.0,
            min_steps=200,
            target_accuracy=0.85,
            setups=9,
            smoke={"num_devices": 12, "num_edges": 3, "test_samples": 100,
                   "local_epochs": 2, "num_steps": 12, "target_accuracy": 0.2},
        ),
        Workload(
            name="cifar10-process",
            preset="cifar10-bench",
            overrides={"trace_kind": "markov", "executor": "process",
                       "num_workers": 2},
            steps_per_second=18.0,
            min_steps=200,
            target_accuracy=0.6,
            setups=9,
            smoke={"num_devices": 12, "num_edges": 3, "test_samples": 100,
                   "local_epochs": 2, "num_steps": 12, "target_accuracy": 0.2},
        ),
        Workload(
            name="city-20k",
            preset="blobs-bench",
            overrides={
                "num_devices": 20000, "num_edges": 8,
                "participation_fraction": 48 / 20000,
                "samples_per_device": 20, "trace_kind": "markov",
                "trace_backend": "streaming", "mach_selection": "topk",
                "eval_cadence": "adaptive",
            },
            steps_per_second=40.0,
            min_steps=200,
            target_accuracy=0.73,
            smoke={"num_devices": 2000, "participation_fraction": 48 / 2000,
                   "num_steps": 30, "target_accuracy": 0.4},
        ),
        Workload(
            name="service-chaos",
            preset="blobs-bench",
            overrides={
                "num_devices": 250, "participation_fraction": 0.2,
                "samples_per_device": 20, "fault_profile": "moderate",
                "churn_profile": "light", "max_staleness": 2,
            },
            steps_per_second=50.0,
            min_steps=200,
            target_accuracy=0.73,
            service=True,
            smoke={"num_devices": 60, "num_steps": 30, "target_accuracy": 0.4},
        ),
    )
}
