"""Engine-level tests for the hot path: the fused evaluation and the
per-phase timing.

The fused ``evaluate`` must equal two separate passes over the test set
(an argmax pass and a cross-entropy pass) bit for bit.  Whole training
runs are pinned by the golden fingerprint cells (``tests/golden``),
recorded with the unoptimised reference path agreeing.
"""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic import make_blobs_dataset
from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single
from repro.hfl.metrics import evaluate
from repro.hfl.telemetry import TelemetryRecorder
from repro.nn.architectures import build_mlp, build_mnist_cnn
from repro.nn.loss import SoftmaxCrossEntropy
from tests.golden.pinned import assert_matches_fingerprint, recorded_numpy_only


def separate_passes(model, dataset, batch_size=256):
    """Accuracy from one predict pass, loss from a second forward pass."""
    accuracy = float(
        np.mean(model.predict(dataset.x, batch_size=batch_size) == dataset.y)
    )
    loss_fn = SoftmaxCrossEntropy()
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        x = dataset.x[start : start + batch_size]
        y = dataset.y[start : start + batch_size]
        total += loss_fn.forward(model.forward(x, training=False), y) * len(y)
    return accuracy, total / len(dataset)


class TestFusedEvaluate:
    def test_matches_separate_passes_bitwise(self, rng):
        model = build_mlp(16, hidden=(8,), rng=rng)
        ds = make_blobs_dataset(70, num_features=16, rng=rng)
        assert evaluate(model, ds, batch_size=16) == separate_passes(model, ds, 16)

    def test_matches_separate_passes_cnn(self, rng):
        model = build_mnist_cnn(input_shape=(1, 8, 8), width=2, hidden=8, rng=rng)
        x = rng.normal(size=(30, 1, 8, 8))
        y = rng.integers(0, 10, size=30)
        ds = Dataset(x=x, y=y, num_classes=10)
        assert evaluate(model, ds, batch_size=8) == separate_passes(model, ds, 8)

    def test_reference_fallback_agrees(self, rng):
        """One batch (the default size exceeds the set) agrees too."""
        model = build_mlp(16, hidden=(8,), rng=rng)
        ds = make_blobs_dataset(50, num_features=16, rng=rng)
        assert evaluate(model, ds) == separate_passes(model, ds)

    def test_empty_dataset_raises(self, rng):
        model = build_mlp(16, hidden=(8,), rng=rng)
        empty = make_blobs_dataset(0, labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate(model, empty)


def tiny_config(**overrides):
    base = dict(
        num_devices=6,
        num_edges=2,
        num_steps=4,
        samples_per_device=20,
        test_samples=60,
        num_workers=2,
        trace_kind="markov",
        seed=5,
    )
    base.update(overrides)
    return PRESETS["blobs-bench"].with_overrides(**base)


def histories_identical(a, b) -> bool:
    return (
        a.history.steps == b.history.steps
        and a.history.accuracy == b.history.accuracy
        and a.history.loss == b.history.loss
        and np.array_equal(a.participation_counts, b.participation_counts)
    )


@recorded_numpy_only
class TestTrainerHotpathParity:
    """A full run down the optimised path equals the fingerprint recorded
    with the unoptimised reference run agreeing."""

    def test_serial_run_bit_identical(self):
        # Four evaluation batches make the fused loss-summation order show.
        assert_matches_fingerprint("small-eval-4-batches")

    def test_faulty_run_bit_identical(self):
        assert_matches_fingerprint("chaos-fedavg-process")


class TestPhaseTiming:
    def test_trainer_records_engine_phases(self):
        telemetry = TelemetryRecorder()
        run_single(tiny_config(), "mach", telemetry=telemetry)
        summary = telemetry.phase_summary()
        for phase in ("plan", "execute", "finish", "eval"):
            assert phase in summary
            assert summary[phase]["seconds"] >= 0.0
            assert summary[phase]["calls"] >= 1
        assert sum(s["share"] for s in summary.values()) == pytest.approx(1.0)

    def test_record_phase_accumulates(self):
        telemetry = TelemetryRecorder()
        telemetry.record_phase("plan", 0.5)
        telemetry.record_phase("plan", 0.25)
        telemetry.record_phase("eval", 0.25)
        summary = telemetry.phase_summary()
        assert summary["plan"]["seconds"] == pytest.approx(0.75)
        assert summary["plan"]["calls"] == 2
        assert summary["eval"]["share"] == pytest.approx(0.25)

    def test_record_phase_rejects_negative(self):
        with pytest.raises(ValueError):
            TelemetryRecorder().record_phase("plan", -0.1)

    def test_empty_summary(self):
        assert TelemetryRecorder().phase_summary() == {}

    def test_phase_times_excluded_from_state_dict(self):
        """Kill/resume compares telemetry state dicts with ``==``; host
        wall-times must therefore never enter the snapshot."""
        telemetry = TelemetryRecorder()
        telemetry.record_phase("execute", 1.0)
        state = telemetry.state_dict()
        assert "phase_seconds" not in state
        assert "phase_calls" not in state
        restored = TelemetryRecorder()
        restored.load_state_dict(state)
        assert restored.state_dict() == state
        assert restored.phase_summary() == {}
