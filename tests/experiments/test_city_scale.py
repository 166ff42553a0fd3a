"""City-scale contracts, end to end.

(1) The streaming trace backend wraps the telecom generator's dense
grid behind a chunk provider, so a telecom run must be bit-identical
on either backend.  (2) At a fixed sampled capacity, training
wall-clock grows sub-linearly in the population.  (3) A mid-sized
streaming city run keeps a bounded peak RSS: each cell runs in a fresh
interpreter, so ``ru_maxrss`` is that cell's own peak and not a
high-water mark of this test process.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import PRESETS, hfl_config_for, make_sampler
from repro.experiments.runner import build_scenario, run_single
from repro.hfl.trainer import HFLTrainer

#: Peak-RSS ceiling of one streaming cell.  The 1k- and 5k-device cells
#: measure 48 and 56 MB; materialising the dense grid or a model copy
#: per device blows far past this headroom.
RSS_CEILING_MB = 400

#: Sampled devices per step, held fixed across populations.
CAPACITY = 48

CELL = """
import json
import resource
import sys

from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single

run_single(PRESETS["blobs-bench"].with_overrides(**json.loads(sys.argv[1])), "mach")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def city_overrides(devices, backend="streaming"):
    """A city of ``devices`` at the fixed capacity, on the city path."""
    return dict(
        num_devices=devices,
        num_edges=8,
        num_steps=30,
        samples_per_device=10,
        participation_fraction=CAPACITY / devices,
        trace_kind="markov",
        trace_backend=backend,
        mach_selection="topk",
        eval_cadence="adaptive",
        seed=0,
    )


def train_seconds(devices, backend):
    """Wall-clock of one city run's training, setup excluded."""
    config = PRESETS["blobs-bench"].with_overrides(
        **city_overrides(devices, backend)
    )
    datasets, test, trace, model_factory = build_scenario(config)
    with HFLTrainer(
        model_factory=model_factory,
        device_datasets=datasets,
        trace=trace,
        sampler=make_sampler("mach", config),
        config=hfl_config_for(config, config.seed),
        test_dataset=test,
    ) as trainer:
        start = time.perf_counter()
        trainer.run(config.num_steps)
        return time.perf_counter() - start


def test_streaming_telecom_run_equals_dense():
    config = PRESETS["blobs-bench"].with_overrides(
        num_devices=64,
        num_edges=8,
        num_steps=20,
        samples_per_device=10,
        participation_fraction=0.5,
        trace_kind="telecom",
        seed=0,
    )
    dense = run_single(config, "mach")
    streamed = run_single(
        config.with_overrides(trace_backend="streaming", trace_chunk_steps=4),
        "mach",
    )
    assert streamed.history.steps == dense.history.steps
    assert streamed.history.accuracy == dense.history.accuracy
    assert streamed.history.loss == dense.history.loss
    np.testing.assert_array_equal(
        streamed.participation_counts, dense.participation_counts
    )


@pytest.mark.parametrize("backend", ["dense", "streaming"])
def test_wall_clock_grows_sublinearly_at_fixed_capacity(backend):
    small = train_seconds(1_000, backend)
    large = train_seconds(10_000, backend)
    assert large / small < 10_000 / 1_000


@pytest.mark.parametrize("devices", [1_000, 5_000])
def test_streaming_cell_peak_rss_under_ceiling(devices):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
    )
    completed = subprocess.run(
        [sys.executable, "-c", CELL, json.dumps(city_overrides(devices))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    peak_mb = float(completed.stdout.splitlines()[-1])
    assert peak_mb <= RSS_CEILING_MB
