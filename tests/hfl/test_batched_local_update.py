"""Bit-identity of the aliased + batched local-update path.

``Device.local_update`` pre-draws all I minibatches and runs the fused
``flat -= lr * grad`` update through the model's canonical flat buffer.
It must agree bit for bit with Eq. (4) taken one step at a time
(:func:`unfused_local_update`: draw a minibatch, take the gradient,
subtract, reload) — at device level, at trainer level on every executor
backend, and across a kill/resume boundary.
"""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs_dataset
from repro.experiments.runner import run_single
from repro.hfl.device import Device, LocalUpdateResult
from repro.nn.architectures import build_mlp
from repro.nn.loss import SoftmaxCrossEntropy
from repro.runtime import EXECUTOR_KINDS, work_items
from repro.utils.rng import as_generator

from tests.hfl.test_hotpath import histories_identical, tiny_config
from tests.kill import kill_after_checkpoint


def unfused_local_update(
    device, start_model, model, local_epochs, learning_rate, batch_size, rng=None
):
    """Eq. (4) one SGD step at a time, with a fresh minibatch draw each."""
    rng = as_generator(rng)
    loss_fn = SoftmaxCrossEntropy()
    model.load_flat(start_model)
    flat = model.flat_copy()
    grad_sq_norms, losses = [], []
    for _ in range(local_epochs):
        x, y = device.dataset.sample_batch(batch_size, rng=rng)
        loss, grad = model.loss_and_grad(x, y, loss_fn)
        grad_sq_norms.append(float(grad @ grad))
        losses.append(loss)
        flat -= learning_rate * grad
        model.load_flat(flat)
    return LocalUpdateResult(
        device.device_id, flat, grad_sq_norms, float(np.mean(losses))
    )


def make_device(rng):
    dataset = make_blobs_dataset(40, num_features=6, num_classes=3, rng=rng)
    return Device(0, dataset)


class TestDeviceLevelParity:
    def test_local_update_matches_reference(self, rng):
        device = make_device(rng)
        model = build_mlp(6, num_classes=3, hidden=(8,), rng=rng)
        start = model.flat_copy()

        optimized = device.local_update(
            start, model, local_epochs=4, learning_rate=0.1, batch_size=8,
            rng=123,
        )
        reference = unfused_local_update(
            device, start, model, local_epochs=4, learning_rate=0.1,
            batch_size=8, rng=123,
        )
        np.testing.assert_array_equal(
            optimized.final_model, reference.final_model
        )
        assert optimized.grad_sq_norms == reference.grad_sq_norms
        assert optimized.mean_loss == reference.mean_loss

    def test_final_model_not_aliased_to_scratch(self, rng):
        """The returned final model must be a standalone array, not a
        view into the shared scratch model's buffer (the next device
        reuses that buffer)."""
        device = make_device(rng)
        model = build_mlp(6, num_classes=3, hidden=(8,), rng=rng)
        result = device.local_update(
            model.flat_copy(), model, local_epochs=2, learning_rate=0.1,
            batch_size=8, rng=1,
        )
        assert not np.shares_memory(result.final_model, model.flat_view())
        snapshot = result.final_model.copy()
        model.load_flat(np.zeros(model.num_parameters))
        np.testing.assert_array_equal(result.final_model, snapshot)

    def test_pre_drawn_batches_preserve_rng_stream(self, rng):
        """The batched path consumes the per-device stream exactly like
        the sequential reference, so draws *after* the local update
        agree too."""
        device = make_device(rng)
        model = build_mlp(6, num_classes=3, hidden=(8,), rng=rng)
        start = model.flat_copy()

        gen_a = np.random.default_rng(77)
        device.local_update(start, model, 3, 0.1, 8, rng=gen_a)
        after_optimized = gen_a.integers(0, 1000, size=4)

        gen_b = np.random.default_rng(77)
        unfused_local_update(device, start, model, 3, 0.1, 8, rng=gen_b)
        after_reference = gen_b.integers(0, 1000, size=4)
        np.testing.assert_array_equal(after_optimized, after_reference)


class TestTrainerLevelParity:
    """Full runs down the stacked and fused path equal runs whose every
    local update is :func:`unfused_local_update`, on every executor
    backend (process workers fork after the patch, so they inherit it)."""

    @pytest.mark.parametrize("executor", EXECUTOR_KINDS)
    def test_run_bit_identical_to_reference(self, executor, monkeypatch):
        config = tiny_config(executor=executor)
        optimized = run_single(config, "mach")
        monkeypatch.setattr(
            work_items, "supports_population_batch", lambda model: False
        )
        monkeypatch.setattr(Device, "local_update", unfused_local_update)
        reference = run_single(config, "mach")
        assert histories_identical(reference, optimized)


class TestKillResumeEquality:
    def test_batched_path_resumes_exactly(self, tmp_path):
        """Kill at a checkpoint boundary and resume: the batched +
        aliased path must replay the uninterrupted run byte for byte."""
        path = str(tmp_path / "ckpt.json")
        config = tiny_config(num_steps=6)
        full = run_single(config, "mach")

        # Kill on an eval boundary.
        kill_after_checkpoint(config, "mach", 5, path)
        resumed = run_single(config, "mach", resume_from=path)

        assert histories_identical(full, resumed)
        np.testing.assert_array_equal(
            full.participation_counts, resumed.participation_counts
        )
