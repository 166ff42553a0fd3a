"""Parity goldens for the trainer's bookkeeping after the participation draw.

Small ``blobs-bench`` scenarios run to completion; their final
cloud-model SHA-256, per-device participation counts and per-step
participant counts must equal recorded literals.  The second scenario
adds faults, churn, bounded staleness and a ``TelemetryRecorder``, so
sampler feedback, survivor aggregation, straggler parking and the round
records (whose per-edge participant counts are pinned too) are all on
the checked path.  It runs under fedavg, the scenario default, and
under the Eq. (5) ``"delta"`` aggregation, whose inverse-probability
weights fedavg never reads.

A third scenario pins the paper's 2-conv CNN (``mnist-bench``) with
participation high enough that edge rounds stack several devices, on
the serial and process executors.  Its literals were recorded before
the CNN presets moved onto the population-batched path, so they pin
that path against the per-device loop across commits.

blobs data does not depend on ``PYTHONHASHSEED``; image data does (the
synthetic class prototypes are seeded through ``hash``), so the CNN
cell runs in a subprocess with ``PYTHONHASHSEED=0``.  The
floating-point result depends on numpy, so the goldens skip under any
other numpy version than the one they were recorded with; the CI test
job pins that version on its Python 3.11 leg, and its Python 3.9 leg
skips them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import PRESETS
from repro.experiments.runner import build_scenario, hfl_config_for, make_sampler
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.trainer import HFLTrainer

RECORDED_NUMPY = "2.4.6"

BASE = dict(
    num_devices=300,
    num_steps=30,
    participation_fraction=0.1,
    samples_per_device=20,
    trace_kind="markov",
    trace_backend="streaming",
    mach_selection="topk",
)
CHAOS = dict(
    BASE, fault_profile="moderate", churn_profile="light", max_staleness=2
)

BASE_GOLDEN = {
    "sha256": "841aa19360e3404fdab00d7b5cf63d5ea6db8f7ec926ce0320d178ae752a3112",
    "participation_counts": [
        3, 1, 3, 3, 2, 2, 2, 2, 4, 3, 4, 7, 4, 4, 2, 2, 3, 5, 4, 3, 3, 3, 2, 2,
        6, 2, 3, 2, 5, 4, 2, 3, 3, 5, 4, 2, 2, 3, 5, 2, 2, 3, 2, 3, 2, 2, 2, 6,
        2, 3, 6, 3, 2, 3, 2, 3, 5, 2, 3, 1, 3, 2, 2, 2, 3, 5, 5, 5, 3, 4, 6, 2,
        2, 3, 2, 4, 2, 4, 3, 4, 3, 3, 3, 3, 4, 5, 3, 2, 3, 3, 3, 4, 6, 3, 3, 4,
        3, 4, 3, 5, 2, 3, 5, 3, 3, 2, 6, 4, 4, 3, 2, 1, 4, 3, 3, 2, 2, 2, 4, 2,
        4, 2, 3, 5, 4, 3, 2, 2, 6, 3, 2, 5, 3, 2, 2, 2, 3, 3, 2, 4, 4, 1, 2, 1,
        2, 4, 1, 2, 5, 3, 2, 3, 4, 2, 4, 4, 2, 4, 1, 3, 6, 3, 2, 2, 3, 4, 7, 3,
        3, 3, 3, 3, 2, 2, 7, 2, 2, 2, 1, 3, 3, 2, 1, 2, 3, 3, 1, 1, 3, 2, 1, 3,
        1, 2, 5, 1, 1, 2, 2, 4, 5, 4, 1, 3, 4, 5, 1, 1, 4, 4, 1, 2, 3, 3, 4, 3,
        1, 4, 3, 2, 3, 1, 4, 2, 5, 3, 1, 3, 4, 4, 4, 5, 4, 2, 1, 1, 4, 2, 2, 2,
        3, 4, 1, 4, 3, 3, 3, 1, 2, 1, 1, 2, 2, 1, 1, 1, 2, 2, 2, 1, 1, 4, 2, 4,
        3, 1, 3, 2, 3, 2, 2, 2, 2, 1, 1, 1, 2, 3, 2, 4, 4, 4, 2, 4, 1, 2, 4, 1,
        6, 2, 2, 5, 2, 2, 2, 1, 4, 4, 3, 3
    ],
    "per_step": [
        34, 29, 27, 28, 45, 18, 25, 21, 37, 31, 25, 28, 23, 23, 30, 26, 31, 32,
        37, 25, 28, 34, 21, 32, 28, 33, 26, 27, 34, 21
    ],
}

CHAOS_GOLDEN = {
    "sha256": "26d98c3c80b274fc3e1b29f75b9bb0db083d80395cbdfb91be40253456c79efa",
    "participation_counts": [
        3, 1, 4, 3, 2, 3, 2, 0, 0, 5, 6, 0, 4, 3, 4, 3, 4, 2, 3, 0, 1, 3, 1,
        1, 6, 2, 2, 3, 0, 4, 0, 0, 1, 3, 1, 1, 3, 4, 4, 6, 4, 0, 1, 5, 2, 2,
        1, 4, 0, 3, 5, 6, 4, 0, 0, 3, 3, 0, 2, 4, 3, 1, 2, 3, 3, 4, 2, 2, 2,
        0, 4, 0, 1, 0, 5, 0, 0, 2, 4, 3, 5, 4, 3, 3, 3, 2, 3, 2, 4, 4, 3, 1,
        1, 2, 3, 5, 2, 1, 2, 6, 2, 0, 3, 2, 0, 3, 3, 2, 4, 2, 3, 2, 5, 1, 1,
        5, 2, 3, 5, 4, 1, 4, 0, 4, 4, 2, 1, 3, 5, 3, 3, 3, 3, 2, 0, 4, 0, 3,
        5, 4, 4, 1, 4, 3, 4, 4, 1, 0, 0, 4, 5, 5, 3, 3, 0, 5, 1, 3, 0, 3, 6,
        0, 2, 3, 6, 0, 3, 2, 3, 2, 4, 2, 2, 1, 7, 3, 4, 0, 0, 3, 4, 2, 2, 0,
        0, 3, 2, 0, 3, 0, 0, 5, 2, 4, 4, 3, 2, 0, 2, 0, 3, 4, 2, 1, 2, 1, 2,
        2, 2, 1, 2, 2, 0, 4, 5, 2, 3, 3, 4, 4, 3, 1, 2, 2, 2, 0, 0, 2, 2, 3,
        4, 3, 2, 2, 2, 1, 3, 1, 3, 2, 0, 5, 2, 6, 2, 1, 2, 0, 6, 2, 1, 2, 3,
        2, 2, 2, 3, 0, 4, 3, 1, 0, 1, 1, 0, 3, 0, 3, 0, 4, 6, 0, 5, 0, 2, 1,
        2, 6, 2, 3, 5, 5, 1, 2, 1, 2, 0, 2, 6, 2, 1, 2, 3, 4, 1, 2, 3, 3, 2, 2
    ],
    "per_step": [
        27, 21, 26, 24, 38, 13, 24, 19, 37, 26, 24, 26, 26, 20, 16, 19, 20,
        24, 35, 28, 26, 27, 17, 24, 22, 27, 16, 26, 23, 13
    ],
    "per_round": [
        7, 3, 4, 9, 4, 3, 2, 5, 5, 6, 3, 6, 7, 7, 3, 5, 8, 3, 4, 4, 12, 7, 7,
        7, 5, 2, 3, 5, 1, 2, 4, 7, 5, 5, 3, 3, 5, 6, 2, 3, 10, 6, 6, 10, 5, 5,
        6, 5, 4, 6, 4, 4, 4, 9, 3, 8, 3, 6, 2, 7, 5, 5, 2, 6, 8, 7, 3, 4, 2,
        4, 2, 3, 3, 4, 4, 5, 5, 4, 2, 3, 5, 4, 8, 2, 1, 5, 6, 5, 2, 6, 8, 8,
        5, 8, 6, 6, 6, 4, 6, 6, 4, 5, 5, 6, 6, 3, 4, 8, 8, 4, 0, 5, 3, 5, 4,
        7, 4, 5, 2, 6, 4, 4, 3, 4, 7, 2, 4, 4, 10, 7, 5, 2, 3, 2, 4, 9, 2, 3,
        11, 1, 3, 3, 5, 2, 10, 2, 3, 2, 3, 3
    ],
    # late admits, late drops, devices joined, devices left
    "open_world": (9, 0, 68, 128),
}

CHAOS_DELTA_GOLDEN = {
    "sha256": "526786cad93c6a205dca6dc787b62dbe069815c58c079fcc2bc9bc9b5af61ef9",
    "participation_counts": [
        3, 1, 4, 3, 2, 3, 2, 0, 0, 5, 4, 0, 4, 3, 2, 3, 4, 2, 2, 0, 1, 2, 2,
        2, 6, 2, 2, 3, 0, 4, 0, 0, 1, 3, 1, 1, 3, 3, 4, 4, 4, 0, 1, 5, 2, 2,
        1, 4, 0, 3, 4, 6, 4, 0, 0, 3, 3, 0, 2, 4, 2, 1, 2, 3, 3, 4, 2, 2, 2,
        0, 4, 0, 1, 0, 5, 0, 0, 2, 4, 3, 5, 4, 4, 3, 3, 2, 4, 2, 4, 4, 4, 1,
        1, 2, 3, 6, 2, 1, 2, 6, 3, 0, 3, 1, 0, 3, 3, 2, 4, 2, 5, 2, 5, 1, 1,
        5, 2, 3, 5, 3, 1, 6, 0, 4, 2, 2, 1, 3, 5, 2, 3, 3, 4, 2, 0, 4, 0, 3,
        5, 4, 4, 1, 4, 3, 4, 5, 1, 0, 0, 3, 5, 5, 2, 2, 0, 5, 1, 3, 0, 3, 6,
        0, 2, 3, 6, 0, 3, 2, 3, 2, 4, 3, 2, 1, 7, 3, 4, 0, 0, 3, 3, 2, 2, 0,
        0, 3, 2, 0, 3, 0, 0, 5, 4, 4, 4, 3, 2, 0, 2, 0, 3, 3, 3, 1, 2, 1, 2,
        3, 1, 1, 2, 2, 0, 4, 5, 2, 3, 3, 4, 2, 2, 1, 2, 2, 3, 0, 0, 2, 2, 3,
        4, 3, 2, 2, 2, 1, 2, 3, 2, 1, 0, 5, 2, 6, 2, 2, 2, 0, 4, 2, 1, 2, 2,
        3, 3, 1, 3, 0, 4, 3, 1, 0, 1, 1, 0, 3, 0, 3, 0, 4, 4, 0, 4, 0, 2, 1,
        1, 5, 3, 3, 4, 6, 1, 2, 1, 2, 0, 2, 6, 1, 1, 2, 2, 4, 1, 2, 4, 3, 0, 3
    ],
    "per_step": [
        27, 21, 26, 24, 38, 13, 24, 19, 37, 26, 24, 25, 27, 21, 16, 16, 22,
        25, 33, 26, 27, 27, 17, 21, 20, 24, 16, 25, 20, 12
    ],
    "per_round": [
        7, 3, 4, 9, 4, 3, 2, 5, 5, 6, 3, 6, 7, 7, 3, 5, 8, 3, 4, 4, 12, 7, 7,
        7, 5, 2, 3, 5, 1, 2, 4, 7, 5, 5, 3, 3, 5, 6, 2, 3, 10, 6, 6, 10, 5, 5,
        6, 5, 4, 6, 4, 4, 4, 9, 3, 8, 2, 5, 3, 7, 6, 5, 2, 6, 8, 7, 4, 4, 2,
        4, 2, 3, 3, 4, 4, 4, 5, 2, 2, 3, 5, 5, 8, 2, 2, 5, 5, 5, 4, 6, 8, 7,
        5, 7, 6, 5, 6, 4, 6, 5, 5, 5, 5, 6, 6, 3, 5, 8, 7, 4, 0, 5, 3, 5, 4,
        5, 4, 5, 2, 5, 4, 4, 3, 4, 5, 3, 3, 2, 10, 6, 5, 2, 3, 3, 3, 9, 2, 3,
        10, 1, 3, 3, 5, 2, 7, 2, 3, 2, 3, 2
    ],
    # late admits, late drops, devices joined, devices left
    "open_world": (10, 0, 68, 128),
}

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=(
        f"parity goldens were recorded with numpy {RECORDED_NUMPY}; "
        f"numpy {np.__version__} may round differently"
    ),
)


def _run(overrides, telemetry=None):
    config = PRESETS["blobs-bench"].with_overrides(**overrides)
    devices, test, trace, model_factory = build_scenario(config, 0)
    trainer = HFLTrainer(
        model_factory=model_factory,
        device_datasets=devices,
        trace=trace,
        sampler=make_sampler("mach", config),
        config=hfl_config_for(config, 0),
        test_dataset=test,
        telemetry=telemetry,
    )
    with trainer:
        per_step = [o.participants for o in trainer.steps(config.num_steps)]
        return trainer.result(), per_step


def _sha256(model: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(model).tobytes()).hexdigest()


def test_topk_streaming_markov_matches_golden():
    result, per_step = _run(BASE)
    assert _sha256(result.final_cloud_model) == BASE_GOLDEN["sha256"]
    assert result.participation_counts.tolist() == (
        BASE_GOLDEN["participation_counts"]
    )
    assert per_step == BASE_GOLDEN["per_step"]


@pytest.mark.parametrize(
    "aggregation, golden",
    [("fedavg", CHAOS_GOLDEN), ("delta", CHAOS_DELTA_GOLDEN)],
)
def test_faults_churn_staleness_telemetry_match_golden(aggregation, golden):
    telemetry = TelemetryRecorder()
    result, per_step = _run(dict(CHAOS, aggregation=aggregation), telemetry)
    assert _sha256(result.final_cloud_model) == golden["sha256"]
    assert result.participation_counts.tolist() == (
        golden["participation_counts"]
    )
    assert per_step == golden["per_step"]
    assert [r.num_participants for r in telemetry.records] == (
        golden["per_round"]
    )
    assert (
        result.late_admits,
        result.late_drops,
        result.devices_joined,
        result.devices_left,
    ) == golden["open_world"]


#: Runs the CNN cell on the executor named in argv[1] and prints the
#: final cloud SHA-256 and participation counts as JSON.
CNN_CELL = """
import hashlib, json, sys
import numpy as np
from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single
config = PRESETS["mnist-bench"].with_overrides(
    num_devices=16, num_edges=2, num_steps=10, samples_per_device=30,
    test_samples=60, local_epochs=2, participation_fraction=0.8,
    trace_kind="markov", executor=sys.argv[1],
    num_workers=2 if sys.argv[1] != "serial" else None,
)
result = run_single(config, "mach")
print(json.dumps({
    "sha256": hashlib.sha256(
        np.ascontiguousarray(result.final_cloud_model).tobytes()
    ).hexdigest(),
    "participation_counts": result.participation_counts.tolist(),
}))
"""

CNN_GOLDEN = {
    "sha256": "e43e17f797553d6069cfaecddfc9232835e04e84454840b5761b54195552efd8",
    "participation_counts": [5, 7, 8, 7, 10, 10, 9, 10, 6, 9, 10, 5, 9, 7, 8, 10],
}


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_mnist_bench_cnn_matches_golden(executor):
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
    )
    completed = subprocess.run(
        [sys.executable, "-c", CNN_CELL, executor],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout.splitlines()[-1]) == CNN_GOLDEN
