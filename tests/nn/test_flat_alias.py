"""Flat-buffer parameter aliasing: views, fused updates, copy semantics.

The model owns one contiguous flat vector per buffer and every layer
parameter is a numpy view into it, so whole-network reads/writes are
single vector ops.  Aliasing must be transparent (bit-identical math),
live (layer mutations visible through the buffer and vice versa) and
transient (pickle/deepcopy re-alias into fresh private buffers — the
contract the process executor relies on).
"""

import copy
import pickle

import numpy as np
import pytest

from repro.nn.architectures import build_mlp, build_mnist_cnn
from repro.nn.loss import SoftmaxCrossEntropy


@pytest.fixture
def mlp(rng):
    return build_mlp(6, hidden=(8,), num_classes=3, rng=rng)


@pytest.fixture
def cnn(rng):
    return build_mnist_cnn(input_shape=(1, 8, 8), width=2, hidden=8, rng=rng)


class TestAliasing:
    def test_parameters_view_into_flat_buffer(self, mlp):
        flat = mlp.flat_view()
        for p in mlp.parameters():
            assert np.shares_memory(p.value, flat)
            assert np.shares_memory(p.grad, mlp.grad_view())

    def test_load_flat_updates_layers(self, mlp, rng):
        new = rng.normal(size=mlp.num_parameters)
        mlp.load_flat(new)
        np.testing.assert_array_equal(mlp.flat_copy(), new)
        # The layer objects see the loaded weights through their views.
        offset = 0
        for p in mlp.parameters():
            expected = new[offset : offset + p.size].reshape(p.shape)
            np.testing.assert_array_equal(p.value, expected)
            offset += p.size

    def test_layer_mutation_visible_in_flat_view(self, mlp):
        before = mlp.flat_copy()
        for p in mlp.parameters():
            p.value[...] = p.value + 1.0
        np.testing.assert_allclose(mlp.flat_view(), before + 1.0)

    def test_flat_copy_is_standalone(self, mlp):
        out = mlp.flat_copy()
        assert not np.shares_memory(out, mlp.flat_view())
        out[:] = 0.0
        assert not np.allclose(mlp.flat_copy(), 0.0)

    def test_flat_view_edit_is_live(self, mlp, rng):
        x = rng.normal(size=(2, 6))
        before = mlp.forward(x, training=False)
        mlp.flat_view()[...] *= 2.0
        after = mlp.forward(x, training=False)
        assert not np.allclose(before, after)

    def test_aliasing_preserves_values_and_grads(self, cnn, rng):
        """Building the alias state must not change observable state."""
        x = rng.normal(size=(3, 1, 8, 8))
        y = rng.integers(0, 10, size=3)
        fresh = build_mnist_cnn(input_shape=(1, 8, 8), width=2, hidden=8, rng=1)
        twin = build_mnist_cnn(input_shape=(1, 8, 8), width=2, hidden=8, rng=1)
        # Alias one twin early, the other only after a backward pass.
        fresh.flat_view()
        loss_a, grad_a = fresh.loss_and_grad(x, y)
        loss_b, grad_b = twin.loss_and_grad(x, y)
        assert loss_a == loss_b
        np.testing.assert_array_equal(grad_a, grad_b)

    def test_zero_grad_clears_grad_view(self, mlp, rng):
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        mlp.loss_and_grad(x, y)
        assert np.any(mlp.grad_view() != 0.0)
        mlp.zero_grad()
        assert not np.any(mlp.grad_view())
        for p in mlp.parameters():
            assert not np.any(p.grad)


class TestFusedUpdate:
    @pytest.mark.parametrize("build", ["mlp", "cnn"])
    def test_fused_step_bit_identical_to_reference(self, build, rng, request):
        model = request.getfixturevalue(build)
        twin = copy.deepcopy(model)
        shape = (5, 6) if build == "mlp" else (5, 1, 8, 8)
        classes = 3 if build == "mlp" else 10
        x = rng.normal(size=shape)
        y = rng.integers(0, classes, size=5)
        loss_fn = SoftmaxCrossEntropy()
        lr = 0.05

        # Reference: separate grad copy then out-of-place flat round trip.
        flat = twin.flat_copy()
        ref_loss, ref_grad = twin.loss_and_grad(x, y, loss_fn)
        flat -= lr * ref_grad
        twin.load_flat(flat)

        fused_loss, fused_grad = model.loss_and_grad(x, y, loss_fn, sgd_lr=lr)
        assert fused_loss == ref_loss
        np.testing.assert_array_equal(fused_grad, ref_grad)
        np.testing.assert_array_equal(model.flat_copy(), twin.flat_copy())

    def test_fused_grad_is_live_view(self, mlp, rng):
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        _loss, grad = mlp.loss_and_grad(x, y, sgd_lr=0.1)
        assert np.shares_memory(grad, mlp.grad_view())

    def test_fused_with_out_buffer_returns_copy(self, mlp, rng):
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        out = np.empty(mlp.num_parameters)
        _loss, grad = mlp.loss_and_grad(x, y, sgd_lr=0.1, out=out)
        assert grad is out
        assert not np.shares_memory(grad, mlp.grad_view())
        np.testing.assert_array_equal(grad, mlp.grad_view())


class TestCopyReAliasing:
    """pickle/deepcopy must rebuild views — the pool-worker contract."""

    def roundtrips(self, model):
        return {
            "deepcopy": copy.deepcopy(model),
            "pickle": pickle.loads(pickle.dumps(model)),
        }

    @pytest.mark.parametrize("fixture", ["mlp", "cnn"])
    def test_copies_preserve_weights_and_realias(self, fixture, request):
        model = request.getfixturevalue(fixture)
        model.flat_view()  # alias state exists before copying
        for name, clone in self.roundtrips(model).items():
            assert "_flat_cache" not in clone.__dict__, name
            np.testing.assert_array_equal(
                clone.flat_copy(), model.flat_copy(), err_msg=name
            )
            # The clone re-aliased into its own private buffer...
            assert not np.shares_memory(clone.flat_view(), model.flat_view())
            for p in clone.parameters():
                assert np.shares_memory(p.value, clone.flat_view()), name

    def test_clone_updates_do_not_leak_to_original(self, mlp):
        mlp.flat_view()
        before = mlp.flat_copy()
        for clone in self.roundtrips(mlp).values():
            clone.flat_view()[...] = 0.0
            for p in clone.parameters():
                assert not p.value.any()
        np.testing.assert_array_equal(mlp.flat_copy(), before)

    def test_copied_model_trains_identically(self, cnn, rng):
        """A re-aliased clone runs the fused loop bit-identically."""
        x = rng.normal(size=(3, 1, 8, 8))
        y = rng.integers(0, 10, size=3)
        clone = pickle.loads(pickle.dumps(cnn))
        loss_a, _ = cnn.loss_and_grad(x, y, sgd_lr=0.05)
        loss_b, _ = clone.loss_and_grad(x, y, sgd_lr=0.05)
        assert loss_a == loss_b
        np.testing.assert_array_equal(cnn.flat_copy(), clone.flat_copy())


class TestDeprecatedShimsRemoved:
    def test_old_names_are_gone(self, mlp):
        """The PR-5 era aliases were removed with the repro.api facade:
        flat_copy / load_flat are the only parameter-vector surface."""
        for name in (
            "get_flat",
            "set_flat",
            "get_flat_parameters",
            "set_flat_parameters",
        ):
            assert not hasattr(mlp, name)

    def test_canonical_surface(self, mlp, rng):
        new = rng.normal(size=mlp.num_parameters)
        mlp.load_flat(new)
        np.testing.assert_array_equal(mlp.flat_copy(), new)
        out = np.empty(mlp.num_parameters)
        assert mlp.flat_copy(out=out) is out
