"""Tests for Sequential/Model, losses and architectures."""

import numpy as np
import pytest

from repro.nn.architectures import (
    build_cifar_cnn,
    build_logistic_regression,
    build_mlp,
    build_mnist_cnn,
    build_model,
)
from repro.nn.layers import Dense, ReLU
from repro.nn.loss import SoftmaxCrossEntropy, accuracy
from repro.nn.model import Sequential


@pytest.fixture
def small_mlp(rng):
    return build_mlp(6, num_classes=3, hidden=(5,), rng=rng)


class TestSoftmaxCrossEntropy:
    def test_loss_of_perfect_prediction_near_zero(self):
        loss_fn = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss_fn.forward(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_give_log_classes(self):
        loss_fn = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10))
        assert loss_fn.forward(logits, np.zeros(4, dtype=int)) == pytest.approx(
            np.log(10)
        )

    def test_gradient_matches_numerical(self, rng):
        loss_fn = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 3])
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                fresh = SoftmaxCrossEntropy()
                bumped = logits.copy()
                bumped[i, j] += eps
                plus = fresh.forward(bumped, labels)
                bumped[i, j] -= 2 * eps
                minus = fresh.forward(bumped, labels)
                assert grad[i, j] == pytest.approx((plus - minus) / (2 * eps), abs=1e-4)

    def test_rejects_batch_mismatch(self):
        with pytest.raises(ValueError, match="batch mismatch"):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()


class TestAccuracy:
    def test_perfect_and_zero(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestModelFlatVector:
    def test_get_set_round_trip(self, small_mlp, rng):
        flat = small_mlp.flat_copy()
        assert flat.shape == (small_mlp.num_parameters,)
        new = rng.normal(size=flat.shape)
        small_mlp.load_flat(new)
        np.testing.assert_allclose(small_mlp.flat_copy(), new)

    def test_set_flat_rejects_wrong_size(self, small_mlp):
        with pytest.raises(ValueError, match="flat vector"):
            small_mlp.load_flat(np.zeros(3))

    def test_num_parameters_counts_all(self, rng):
        model = Sequential([Dense(4, 3, rng=rng), ReLU(), Dense(3, 2, rng=rng)])
        assert model.num_parameters == (4 * 3 + 3) + (3 * 2 + 2)

    def test_set_flat_changes_forward(self, small_mlp, rng):
        x = rng.normal(size=(2, 6))
        before = small_mlp.forward(x, training=False)
        small_mlp.load_flat(small_mlp.flat_copy() * 2.0)
        after = small_mlp.forward(x, training=False)
        assert not np.allclose(before, after)


class TestFlatParameterFastPath:
    def test_flat_copy_deterministic(self, small_mlp):
        np.testing.assert_array_equal(
            small_mlp.flat_copy(), small_mlp.flat_copy()
        )

    def test_out_buffer_reused(self, small_mlp):
        out = np.empty(small_mlp.num_parameters)
        returned = small_mlp.flat_copy(out=out)
        assert returned is out
        np.testing.assert_array_equal(out, small_mlp.flat_copy())

    def test_out_buffer_wrong_shape_rejected(self, small_mlp):
        with pytest.raises(ValueError, match="out buffer"):
            small_mlp.flat_copy(out=np.empty(3))
        with pytest.raises(ValueError, match="out buffer"):
            small_mlp.get_flat_grad(out=np.empty(3))

    def test_load_flat_round_trip(self, small_mlp, rng):
        new = rng.normal(size=small_mlp.num_parameters)
        small_mlp.load_flat(new)
        np.testing.assert_array_equal(small_mlp.flat_copy(), new)

    def test_load_flat_rejects_wrong_shape(self, small_mlp):
        with pytest.raises(ValueError, match="flat vector"):
            small_mlp.load_flat(np.zeros(3))

    def test_layout_cache_tracks_parameter_storage(self, small_mlp, rng):
        """The cached layout aliases live Parameter storage: mutations
        via layer objects must be visible through the fast path."""
        first = small_mlp.flat_copy()
        for p in small_mlp.parameters():
            p.value[...] = p.value + 1.0
        second = small_mlp.flat_copy()
        np.testing.assert_allclose(second, first + 1.0)

    def test_grad_fast_path_matches_loss_and_grad(self, small_mlp, rng):
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        _loss, grad = small_mlp.loss_and_grad(x, y)
        np.testing.assert_array_equal(grad, small_mlp.get_flat_grad())


class TestLossAndGrad:
    def test_returns_fresh_gradient(self, small_mlp, rng):
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        _loss1, g1 = small_mlp.loss_and_grad(x, y)
        _loss2, g2 = small_mlp.loss_and_grad(x, y)
        np.testing.assert_allclose(g1, g2)  # zero_grad per call, no accumulation

    def test_gradient_descends_loss(self, small_mlp, rng):
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, size=8)
        loss0, grad = small_mlp.loss_and_grad(x, y)
        small_mlp.load_flat(small_mlp.flat_copy() - 0.05 * grad)
        loss1, _ = small_mlp.loss_and_grad(x, y)
        assert loss1 < loss0

    def test_full_model_gradient_numerically(self, rng):
        """End-to-end flat-gradient check through Dense+ReLU stack."""
        model = build_mlp(3, num_classes=2, hidden=(4,), rng=rng)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        _loss, grad = model.loss_and_grad(x, y)
        flat = model.flat_copy()
        eps = 1e-6
        loss_fn = SoftmaxCrossEntropy()
        for i in range(0, flat.size, 7):  # sample every 7th coordinate
            bumped = flat.copy()
            bumped[i] += eps
            model.load_flat(bumped)
            plus = loss_fn.forward(model.forward(x, training=False), y)
            bumped[i] -= 2 * eps
            model.load_flat(bumped)
            minus = loss_fn.forward(model.forward(x, training=False), y)
            assert grad[i] == pytest.approx((plus - minus) / (2 * eps), abs=1e-4)
        model.load_flat(flat)


class TestPredict:
    def test_predict_shape_and_range(self, small_mlp, rng):
        predictions = small_mlp.predict(rng.normal(size=(10, 6)))
        assert predictions.shape == (10,)
        assert set(predictions).issubset({0, 1, 2})

    def test_predict_batches_consistently(self, small_mlp, rng):
        x = rng.normal(size=(10, 6))
        np.testing.assert_array_equal(
            small_mlp.predict(x, batch_size=3), small_mlp.predict(x, batch_size=100)
        )


class TestArchitectures:
    def test_mnist_cnn_shapes(self, rng):
        model = build_mnist_cnn((1, 28, 28), width=2, hidden=8, rng=rng)
        out = model.forward(rng.normal(size=(2, 1, 28, 28)), training=False)
        assert out.shape == (2, 10)

    def test_cifar_cnn_shapes(self, rng):
        model = build_cifar_cnn((3, 32, 32), width=2, hidden=8, rng=rng)
        out = model.forward(rng.normal(size=(2, 3, 32, 32)), training=False)
        assert out.shape == (2, 10)

    def test_reduced_resolution(self, rng):
        model = build_mnist_cnn((1, 12, 12), width=2, hidden=8, rng=rng)
        assert model.forward(rng.normal(size=(1, 1, 12, 12))).shape == (1, 10)

    def test_logistic_regression_is_linear(self, rng):
        model = build_logistic_regression(5, num_classes=3, rng=rng)
        x = rng.normal(size=(2, 5))
        out1 = model.forward(x, training=False)
        out2 = model.forward(2 * x, training=False)
        bias = model.layers[0].bias.value
        np.testing.assert_allclose(out2 - bias, 2 * (out1 - bias))

    def test_build_model_dispatch(self, rng):
        assert build_model("mnist", (1, 12, 12), rng=rng).forward(
            rng.normal(size=(1, 1, 12, 12))
        ).shape == (1, 10)
        assert build_model("cifar10", (3, 16, 16), scale="tiny", rng=rng).forward(
            rng.normal(size=(1, 3, 16, 16))
        ).shape == (1, 10)
        assert build_model("mlp", (7,), rng=rng).forward(
            rng.normal(size=(2, 7))
        ).shape == (2, 10)

    def test_build_model_rejects_unknowns(self, rng):
        with pytest.raises(ValueError, match="unknown scale"):
            build_model("mnist", (1, 12, 12), scale="huge")
        with pytest.raises(ValueError, match="unknown task"):
            build_model("imagenet", (3, 224, 224))

    def test_too_small_input_raises(self, rng):
        with pytest.raises(ValueError, match="too small"):
            build_cifar_cnn((3, 4, 4), rng=rng)

    def test_scales_order_parameter_counts(self, rng):
        tiny = build_model("mnist", (1, 12, 12), scale="tiny", rng=rng)
        small = build_model("mnist", (1, 12, 12), scale="small", rng=rng)
        paper = build_model("mnist", (1, 12, 12), scale="paper", rng=rng)
        assert tiny.num_parameters < small.num_parameters < paper.num_parameters

    def test_cnn_trains_on_synthetic_batch(self, rng):
        """A few SGD steps must reduce loss on a tiny fixed batch."""
        model = build_mnist_cnn((1, 8, 8), width=2, hidden=8, rng=rng)
        x = rng.normal(size=(16, 1, 8, 8))
        y = rng.integers(0, 10, size=16)
        loss0, _ = model.loss_and_grad(x, y)
        for _ in range(30):
            _loss, grad = model.loss_and_grad(x, y)
            model.load_flat(model.flat_copy() - 0.1 * grad)
        loss1, _ = model.loss_and_grad(x, y)
        assert loss1 < loss0 * 0.8
