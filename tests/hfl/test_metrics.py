"""Tests for evaluation metrics and training history."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs_dataset
from repro.hfl.metrics import TrainingHistory, evaluate
from repro.nn.architectures import build_mlp


class TestEvaluate:
    def test_accuracy_in_unit_interval(self, rng):
        model = build_mlp(16, hidden=(8,), rng=rng)
        ds = make_blobs_dataset(50, rng=rng)
        acc, _loss = evaluate(model, ds)
        assert 0.0 <= acc <= 1.0

    def test_loss_positive(self, rng):
        model = build_mlp(16, hidden=(8,), rng=rng)
        ds = make_blobs_dataset(50, rng=rng)
        assert evaluate(model, ds)[1] > 0

    def test_loss_batching_consistent(self, rng):
        model = build_mlp(16, hidden=(8,), rng=rng)
        ds = make_blobs_dataset(70, rng=rng)
        _, a = evaluate(model, ds, batch_size=7)
        acc_b, b = evaluate(model, ds, batch_size=512)
        assert a == pytest.approx(b)
        assert evaluate(model, ds, batch_size=7)[0] == acc_b

    def test_empty_dataset_raises(self, rng):
        model = build_mlp(16, hidden=(8,), rng=rng)
        empty = make_blobs_dataset(0, labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate(model, empty)


class TestTrainingHistory:
    def make(self):
        history = TrainingHistory()
        for step, acc in [(5, 0.3), (10, 0.5), (15, 0.72), (20, 0.80), (25, 0.78)]:
            history.record(step, acc, 1.0 - acc)
        return history

    def test_time_to_accuracy(self):
        history = self.make()
        assert history.time_to_accuracy(0.5) == 10
        assert history.time_to_accuracy(0.75) == 20
        assert history.time_to_accuracy(0.99) is None

    def test_monotone_steps_enforced(self):
        history = self.make()
        with pytest.raises(ValueError, match="increasing"):
            history.record(20, 0.9, 0.1)

    def test_best_and_final(self):
        history = self.make()
        assert history.best_accuracy() == 0.80
        assert history.final_accuracy() == 0.78

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().best_accuracy()
        with pytest.raises(ValueError):
            TrainingHistory().final_accuracy()

    def test_smoothed_accuracy_window(self):
        history = self.make()
        smoothed = history.smoothed_accuracy(window=2)
        assert smoothed[0] == pytest.approx(0.3)
        assert smoothed[1] == pytest.approx(0.4)
        assert smoothed[-1] == pytest.approx((0.80 + 0.78) / 2)

    def test_smoothed_rejects_bad_window(self):
        with pytest.raises(ValueError):
            self.make().smoothed_accuracy(window=0)
