"""Population-batched local updates: bit-identity with the per-device
loop (MLPs and the paper CNNs), support predicate, buffer reuse and
the layer-0 gradient rule."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs_dataset
from repro.nn.architectures import build_model
from repro.nn.layers import Conv2d, Dense, Dropout, Flatten, ReLU
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.population import PopulationModel, supports_population_batch


def make_mlp(rng, in_features=16, hidden=24, classes=10):
    return Sequential(
        [
            Flatten(),
            Dense(in_features, hidden, rng=rng),
            ReLU(),
            Dense(hidden, classes, rng=rng),
        ]
    )


def reference_updates(model, start, xs, ys, lr):
    """Per-device hot-path loop (Device.local_update's exact math) from
    one ``(P,)`` start or a ``(D, P)`` matrix of per-device starts."""
    loss_fn = SoftmaxCrossEntropy()
    starts = np.broadcast_to(start, (xs.shape[1], start.shape[-1]))
    finals = np.empty(starts.shape)
    losses = np.empty((xs.shape[1], xs.shape[0]))
    grad_sq = np.empty_like(losses)
    for d in range(xs.shape[1]):
        model.load_flat(starts[d])
        for tau in range(xs.shape[0]):
            loss, grad = model.loss_and_grad(
                xs[tau, d], ys[tau, d], loss_fn, sgd_lr=lr
            )
            losses[d, tau] = loss
            grad_sq[d, tau] = float(grad @ grad)
        finals[d] = model.flat_copy()
    return finals, losses, grad_sq


class TestSupportsPredicate:
    def test_dense_relu_flatten_supported(self, rng):
        assert supports_population_batch(make_mlp(rng))

    def test_dropout_falls_back(self, rng):
        with_dropout = Sequential(
            [Dense(4, 4, rng=rng), Dropout(0.5), Dense(4, 2, rng=rng)]
        )
        assert not supports_population_batch(with_dropout)

    def test_conv_and_pool_stacks_supported(self, rng):
        with_conv = Sequential(
            [Conv2d(1, 2, 3, rng=rng), Flatten(), Dense(8, 2, rng=rng)]
        )
        assert supports_population_batch(with_conv)
        for task, shape in (("mnist", (1, 8, 8)), ("cifar10", (3, 8, 8))):
            assert supports_population_batch(
                build_model(task, shape, scale="tiny", rng=rng)
            )

    def test_population_model_rejects_unsupported(self, rng):
        model = Sequential([Dense(4, 4, rng=rng), Dropout(0.5)])
        with pytest.raises(ValueError, match="population batching"):
            PopulationModel(model)


class TestBitIdentity:
    @pytest.fixture
    def workload(self, rng):
        model = make_mlp(rng)
        start = model.flat_copy()
        epochs, pop, batch = 5, 7, 8
        xs = rng.normal(size=(epochs, pop, batch, 16))
        ys = rng.integers(0, 10, size=(epochs, pop, batch))
        return model, start, xs, ys

    def test_stacked_matches_per_device_reference(self, workload):
        model, start, xs, ys = workload
        lr = 0.08
        ref_finals, ref_losses, ref_gsq = reference_updates(
            model, start, xs, ys, lr
        )
        pop = PopulationModel(model)
        finals, losses, grad_sq = pop.local_updates(start, xs, ys, lr)
        np.testing.assert_array_equal(finals, ref_finals)
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(grad_sq, ref_gsq)

    def test_buffer_reuse_stays_identical(self, workload):
        """A second call on the same (grown) buffers must not be
        polluted by the first round's leftover values."""
        model, start, xs, ys = workload
        pop = PopulationModel(model)
        pop.local_updates(start, xs, ys, 0.08)
        ref_finals, ref_losses, _ = reference_updates(
            model, start, xs[:, :3], ys[:, :3], 0.05
        )
        finals, losses, _ = pop.local_updates(start, xs[:, :3], ys[:, :3], 0.05)
        np.testing.assert_array_equal(finals, ref_finals)
        np.testing.assert_array_equal(losses, ref_losses)

    def test_capacity_grows_geometrically(self, rng):
        model = make_mlp(rng)
        pop = PopulationModel(model, capacity=4)
        assert pop.capacity == 4
        pop.ensure(5)
        assert pop.capacity == 8  # doubled, not nudged to 5
        pop.ensure(3)
        assert pop.capacity == 8  # never shrinks

    def test_flat_layout_matches_model(self, rng):
        model = make_mlp(rng)
        pop = PopulationModel(model)
        assert pop.num_parameters == model.flat_copy().size


class TestCNNBitIdentity:
    """The paper's 2-conv and 3-conv CNNs on the stacked Conv2d/MaxPool2d
    twins reproduce the per-device loop bit for bit."""

    @staticmethod
    def batches(rng, shape, epochs, pop, batch=4):
        xs = rng.normal(size=(epochs, pop, batch) + shape)
        ys = rng.integers(0, 10, size=(epochs, pop, batch))
        return xs, ys

    @pytest.mark.parametrize("scale", ["tiny", "small", "paper"])
    @pytest.mark.parametrize(
        "task, shape", [("mnist", (1, 12, 12)), ("cifar10", (3, 16, 16))]
    )
    def test_stacked_cnn_matches_per_device(self, rng, task, shape, scale):
        """Batch sizes around the workloads' 8 pin the weight gradient's
        batch-axis sum; a ``(D, P)`` start matrix gives every device
        its own weights, as a step chunk spanning edge rounds does."""
        model = build_model(task, shape, scale=scale, rng=rng)
        start = model.flat_copy()
        starts = start + 0.05 * rng.normal(size=(4, start.size))
        pop = PopulationModel(model)
        for batch in (1, 3, 8):
            xs, ys = self.batches(rng, shape, epochs=3, pop=4, batch=batch)
            for begin in (start, starts):
                reference = reference_updates(model, begin, xs, ys, 0.05)
                stacked = pop.local_updates(begin, xs, ys, 0.05)
                for got, want in zip(stacked, reference):
                    np.testing.assert_array_equal(got, want)

    def test_workspace_reuse_across_population_sizes(self, rng):
        """Rounds of different D share one PopulationModel, whose conv
        workspaces persist across rounds and must not leak values from
        one round into the next."""
        shape = (3, 8, 8)
        model = build_model("cifar10", shape, scale="tiny", rng=rng)
        start = model.flat_copy()
        pop = PopulationModel(model)
        workspaces = [w for w in pop._workspaces if w is not None]
        assert len(workspaces) == 3
        for size in (5, 2, 5, 3):
            xs, ys = self.batches(rng, shape, epochs=2, pop=size)
            reference = reference_updates(model, start, xs, ys, 0.05)
            stacked = pop.local_updates(start, xs, ys, 0.05)
            for got, want in zip(stacked, reference):
                np.testing.assert_array_equal(got, want)
            if size == 5:
                sizes = [
                    {k: b.shape for k, b in w._buffers.items()}
                    for w in workspaces
                ]
        assert [w for w in pop._workspaces if w is not None] == workspaces
        # Smaller rounds reused prefixes of the D=5 buffers.
        assert [
            {k: b.shape for k, b in w._buffers.items()} for w in workspaces
        ] == sizes


class TestLayerZeroGradient:
    """loss_and_grad stops the backward walk at the first layer with
    parameters and skips its input gradient; parameter gradients must
    equal those of a full backward."""

    @pytest.mark.parametrize(
        "task, shape",
        [("mnist", (1, 12, 12)), ("cifar10", (3, 16, 16)), ("mlp", (16,))],
    )
    def test_parameter_gradients_equal_full_backward(self, rng, task, shape):
        if task == "mlp":  # Flatten first: the walk stops at layer 1
            model = make_mlp(rng)
        else:
            model = build_model(task, shape, scale="small", rng=rng)
        x = rng.normal(size=(6,) + shape)
        y = rng.integers(0, 10, size=6)
        _loss, grad = model.loss_and_grad(x, y)

        model.zero_grad()
        loss_fn = SoftmaxCrossEntropy()
        loss_fn.forward(model.forward(x, training=True), y)
        input_grad = model.backward(loss_fn.backward())
        assert input_grad.shape == x.shape
        np.testing.assert_array_equal(grad, model.get_flat_grad())

    def test_skipped_input_gradient_returns_none(self, rng):
        model = make_mlp(rng)
        x = rng.normal(size=(4, 16))
        loss_fn = SoftmaxCrossEntropy()
        loss_fn.forward(model.forward(x, training=True), np.arange(4))
        assert model.backward(loss_fn.backward(), input_grad=False) is None


class TestDatasetStackedSampling:
    def test_sample_batches_matches_sequential_draws(self, rng):
        dataset = make_blobs_dataset(40, num_features=16, num_classes=10, rng=rng)
        for batch_size in (5, 8, 39, 64):  # odd B and B > n included
            rng_a = np.random.default_rng(9)
            rng_b = np.random.default_rng(9)
            xs, ys = dataset.sample_batches(4, batch_size, rng=rng_a)
            for tau in range(4):
                x, y = dataset.sample_batch(batch_size, rng=rng_b)
                np.testing.assert_array_equal(xs[tau], x)
                np.testing.assert_array_equal(ys[tau], y)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
