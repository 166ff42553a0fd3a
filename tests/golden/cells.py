"""Golden fingerprint cells: small scenarios whose results are pinned bit for bit.

A cell is one preset × sampler × topology/aggregation ×
fault/churn/staleness × trace backend × executor combination, run to
completion.  Two variants widen a cell:

- ``kill_at``: the run is checkpointed at that step, stopped, and
  resumed from the checkpoint by a fresh trainer.  Its fingerprint must
  equal the uninterrupted cell's.
- ``trim``: the named devices keep only that many samples, fewer than
  the minibatch size.  A round holding one of them mixes effective
  minibatch sizes and runs on the per-device loop instead of the
  stacked population pass.

:func:`fingerprint` runs a cell and returns what
``tests/golden/fingerprints.json`` records for it: the final cloud
model's SHA-256, the per-device participation counts, the participants
per step and per edge round, a SHA-256 over the evaluation history
(steps, accuracy and loss bits) and the open-world counters.

Image presets seed their synthetic class prototypes through ``hash``,
so their data depends on ``PYTHONHASHSEED``.  Image cells therefore run
under ``PYTHONHASHSEED=0``: :func:`fingerprint_isolated` runs one in
such a subprocess, through ``python -m tests.golden.cells NAME``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.experiments.config import PRESETS
from repro.experiments.runner import build_scenario, hfl_config_for, make_sampler
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.trainer import HFLTrainer

REPO = Path(__file__).resolve().parents[2]
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

#: Every CNN edge round of the ``min_stack`` cells holds at least this
#: many participants, so the stacked conv/pool pass runs wide in every
#: step, even one that falls back to one stack per round.
MIN_CNN_STACK = 3


class Cell(NamedTuple):
    preset: str
    overrides: dict
    sampler: str = "mach"
    kill_at: Optional[int] = None
    trim: Optional[Dict[int, int]] = None
    min_stack: bool = False

    @property
    def needs_hash_seed(self) -> bool:
        return PRESETS[self.preset].task != "blobs"


#: 300 devices, 10% participation, top-k MACH on a streaming trace.
BASE = dict(
    num_devices=300,
    num_steps=30,
    participation_fraction=0.1,
    samples_per_device=20,
    trace_kind="markov",
    trace_backend="streaming",
    mach_selection="topk",
)
#: BASE with faults, churn and bounded staleness.
CHAOS = dict(BASE, fault_profile="moderate", churn_profile="light", max_staleness=2)
#: A 16-device dense-trace scenario for the topology and sampler cells.
SMALL = dict(num_devices=16, num_edges=4, num_steps=10, trace_kind="markov")
#: Participation high enough that every CNN edge round stacks devices.
CNN = dict(
    num_devices=16,
    num_edges=2,
    num_steps=10,
    samples_per_device=30,
    test_samples=60,
    local_epochs=2,
    participation_fraction=0.8,
    trace_kind="markov",
)
#: The city-scale smoke's batched-updates scenario (dense trace).
SCALE = dict(
    num_devices=64,
    num_edges=8,
    num_steps=20,
    samples_per_device=10,
    participation_fraction=0.5,
    trace_kind="markov",
    mach_selection="full",
    eval_cadence="fixed",
)
PROCESS = dict(executor="process", num_workers=2)

CELLS: Dict[str, Cell] = {
    "base-fedavg": Cell("blobs-bench", BASE),
    "base-fedavg-kill": Cell("blobs-bench", BASE, kill_at=15),
    "base-delta": Cell("blobs-bench", dict(BASE, aggregation="delta")),
    "chaos-fedavg": Cell("blobs-bench", CHAOS),
    "chaos-fedavg-kill": Cell("blobs-bench", CHAOS, kill_at=15),
    "chaos-fedavg-process": Cell("blobs-bench", dict(CHAOS, **PROCESS)),
    "chaos-delta": Cell("blobs-bench", dict(CHAOS, aggregation="delta")),
    "small-hierarchical-ipw": Cell("blobs-bench", SMALL),
    "small-hierarchical-ipw-process": Cell("blobs-bench", dict(SMALL, **PROCESS)),
    "small-clustered-cluster_mix": Cell(
        "blobs-bench", dict(SMALL, topology="clustered", num_clusters=2)
    ),
    "small-gossip-gossip_avg": Cell(
        "blobs-bench", dict(SMALL, topology="gossip", gossip_degree=2)
    ),
    "small-uniform": Cell("blobs-bench", SMALL, sampler="uniform"),
    "small-mach_p": Cell("blobs-bench", SMALL, sampler="mach_p"),
    "small-mlp-uneven": Cell("blobs-bench", SMALL, trim={3: 5, 10: 6}),
    "scale-dense": Cell("blobs-bench", SCALE),
    # Four evaluation batches: the loss of a fused evaluation sums them
    # in a fixed order, which a two-batch test set cannot reveal.
    "small-eval-4-batches": Cell("blobs-bench", dict(SMALL, test_samples=1000)),
    "mnist-cnn": Cell("mnist-bench", CNN, min_stack=True),
    "mnist-cnn-kill": Cell("mnist-bench", CNN, kill_at=5, min_stack=True),
    "mnist-cnn-process": Cell("mnist-bench", dict(CNN, **PROCESS), min_stack=True),
    "cifar10-cnn": Cell("cifar10-bench", CNN, min_stack=True),
    "cifar10-cnn-process": Cell(
        "cifar10-bench", dict(CNN, **PROCESS), min_stack=True
    ),
}


def _sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _trainer(cell: Cell, config, telemetry) -> HFLTrainer:
    devices, test, trace, model_factory = build_scenario(config, config.seed)
    for device, size in (cell.trim or {}).items():
        devices[device] = devices[device].subset(np.arange(size))
    return HFLTrainer(
        model_factory=model_factory,
        device_datasets=devices,
        trace=trace,
        sampler=make_sampler(cell.sampler, config),
        config=hfl_config_for(config, config.seed),
        test_dataset=test,
        telemetry=telemetry,
    )


def fingerprint(name: str) -> dict:
    """Run cell ``name`` in this process and fingerprint its result."""
    cell = CELLS[name]
    config = PRESETS[cell.preset].with_overrides(**cell.overrides)
    telemetry = TelemetryRecorder()
    per_step: List[int] = []
    resume_from = None
    with tempfile.TemporaryDirectory() as tmp:
        if cell.kill_at is not None:
            # The generator writes step k's checkpoint when it resumes
            # after yielding step k, so the run is stopped one step
            # later, as a crash there would; that step is lost.
            resume_from = os.path.join(tmp, "checkpoint.json")
            killed = config.with_overrides(
                checkpoint_every=cell.kill_at, checkpoint_path=resume_from
            )
            with _trainer(cell, killed, TelemetryRecorder()) as trainer:
                for outcome in trainer.steps(config.num_steps):
                    per_step.append(outcome.participants)
                    if len(per_step) > cell.kill_at:
                        break
            del per_step[cell.kill_at :]
        with _trainer(cell, config, telemetry) as trainer:
            per_step += [
                o.participants
                for o in trainer.steps(
                    config.num_steps,
                    target_accuracy=config.target_accuracy,
                    resume_from=resume_from,
                )
            ]
            result = trainer.result()
    history = result.history
    return {
        "sha256": _sha256(result.final_cloud_model),
        "participation_counts": result.participation_counts.tolist(),
        "per_step": per_step,
        "per_round": [record.num_participants for record in telemetry.records],
        "eval_sha256": _sha256(
            np.asarray(history.steps, dtype=np.int64),
            np.asarray(history.accuracy, dtype=np.float64),
            np.asarray(history.loss, dtype=np.float64),
        ),
        "open_world": [
            result.late_admits,
            result.late_drops,
            result.devices_joined,
            result.devices_left,
        ],
    }


def fingerprint_isolated(name: str) -> dict:
    """:func:`fingerprint` in a subprocess under ``PYTHONHASHSEED=0``."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
    )
    completed = subprocess.run(
        [sys.executable, "-m", "tests.golden.cells", name],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"cell {name} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.splitlines()[-1])


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text())


def dump_fingerprints(numpy_version: str, cells: Dict[str, dict]) -> str:
    """The file's text: one line per cell, so a re-record diffs by cell."""
    lines = [
        f"  {json.dumps(name)}: {json.dumps(cells[name], sort_keys=True)}"
        for name in sorted(cells)
    ]
    return (
        "{\n"
        f' "numpy": {json.dumps(numpy_version)},\n'
        ' "cells": {\n' + ",\n".join(lines) + "\n }\n}\n"
    )


if __name__ == "__main__":
    print(json.dumps(fingerprint(sys.argv[1])))
