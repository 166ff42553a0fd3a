"""Tests for repro.nn.layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Dense, Dropout, Flatten, MaxPool2d, ReLU


def numerical_grad_wrt_input(layer, x, grad_out, eps=1e-6):
    """Central-difference gradient of <layer(x), grad_out> w.r.t. x."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        plus = np.sum(layer.forward(x, training=False) * grad_out)
        flat_x[i] = orig - eps
        minus = np.sum(layer.forward(x, training=False) * grad_out)
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


def numerical_grad_wrt_param(layer, param, x, grad_out, eps=1e-6):
    """Central-difference gradient of <layer(x), grad_out> w.r.t. a parameter."""
    grad = np.zeros_like(param.value)
    flat_p = param.value.ravel()
    flat_g = grad.ravel()
    for i in range(flat_p.size):
        orig = flat_p[i]
        flat_p[i] = orig + eps
        plus = np.sum(layer.forward(x, training=False) * grad_out)
        flat_p[i] = orig - eps
        minus = np.sum(layer.forward(x, training=False) * grad_out)
        flat_p[i] = orig
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(8, 4, rng=rng)
        assert layer.forward(rng.normal(size=(3, 8))).shape == (3, 4)

    def test_forward_matches_matmul(self, rng):
        layer = Dense(5, 3, rng=rng)
        x = rng.normal(size=(2, 5))
        expected = x @ layer.weight.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_backward_gradients_numerically(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        grad_out = rng.normal(size=(2, 3))
        layer.forward(x, training=True)
        grad_in = layer.backward(grad_out)
        np.testing.assert_allclose(
            grad_in, numerical_grad_wrt_input(layer, x, grad_out), atol=1e-5
        )
        np.testing.assert_allclose(
            layer.weight.grad,
            numerical_grad_wrt_param(layer, layer.weight, x, grad_out),
            atol=1e-5,
        )
        np.testing.assert_allclose(
            layer.bias.grad,
            numerical_grad_wrt_param(layer, layer.bias, x, grad_out),
            atol=1e-5,
        )

    def test_gradients_accumulate(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        g = rng.normal(size=(2, 2))
        layer.forward(x, training=True)
        layer.backward(g)
        once = layer.weight.grad.copy()
        layer.forward(x, training=True)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * once)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3)
        layer = Dense(4, 2, rng=rng)
        with pytest.raises(ValueError, match=r"\(B, F\)"):
            layer.forward(rng.normal(size=(2, 4, 1)))

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(rng.normal(size=(1, 2)))


class TestReLU:
    def test_forward_clips_negatives(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(layer.forward(x), [[0.0, 0.0, 2.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        x = np.array([[-1.0, 3.0]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[5.0, 7.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 7.0]])


class TestFlatten:
    def test_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestDropout:
    def test_identity_at_eval(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = rng.normal(size=(4, 8))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_zero_rate_is_identity(self, rng):
        layer = Dropout(0.0, rng=rng)
        x = rng.normal(size=(4, 8))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_preserves_expectation(self):
        layer = Dropout(0.3, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConv2d:
    def test_forward_shape_with_padding(self, rng):
        layer = Conv2d(3, 6, kernel_size=3, padding=1, rng=rng)
        assert layer.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 6, 8, 8)

    def test_forward_shape_with_stride(self, rng):
        layer = Conv2d(1, 2, kernel_size=3, stride=2, rng=rng)
        assert layer.forward(rng.normal(size=(1, 1, 9, 9))).shape == (1, 2, 4, 4)

    def test_matches_manual_convolution(self, rng):
        """Compare against a direct nested-loop convolution."""
        layer = Conv2d(2, 3, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 2, 4, 4))
        out = layer.forward(x)
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i : i + 2, j : j + 2]
                    expected = np.sum(patch * layer.weight.value[oc]) + layer.bias.value[oc]
                    assert out[0, oc, i, j] == pytest.approx(expected)

    def test_backward_gradients_numerically(self, rng):
        layer = Conv2d(2, 2, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        grad_out = rng.normal(size=(1, 2, 5, 5))
        layer.forward(x, training=True)
        grad_in = layer.backward(grad_out)
        np.testing.assert_allclose(
            grad_in, numerical_grad_wrt_input(layer, x, grad_out), atol=1e-5
        )
        np.testing.assert_allclose(
            layer.weight.grad,
            numerical_grad_wrt_param(layer, layer.weight, x, grad_out),
            atol=1e-5,
        )
        np.testing.assert_allclose(
            layer.bias.grad,
            numerical_grad_wrt_param(layer, layer.bias, x, grad_out),
            atol=1e-5,
        )

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2d(3, 2, kernel_size=3, rng=rng)
        with pytest.raises(ValueError, match="expects"):
            layer.forward(rng.normal(size=(1, 2, 8, 8)))


class TestMaxPool2d:
    def test_forward_known_values(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(grad[0, 0], expected)

    def test_backward_gradient_numerically(self, rng):
        layer = MaxPool2d(2)
        x = rng.normal(size=(2, 2, 6, 6))
        grad_out = rng.normal(size=(2, 2, 3, 3))
        layer.forward(x, training=True)
        grad_in = layer.backward(grad_out)
        np.testing.assert_allclose(
            grad_in, numerical_grad_wrt_input(layer, x, grad_out), atol=1e-5
        )

    def test_odd_input_truncates(self, rng):
        layer = MaxPool2d(2)
        out = layer.forward(rng.normal(size=(1, 1, 5, 5)), training=True)
        assert out.shape == (1, 1, 2, 2)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == (1, 1, 5, 5)
        np.testing.assert_array_equal(grad[:, :, 4, :], 0.0)

    def test_rejects_overlapping_stride(self):
        with pytest.raises(NotImplementedError):
            MaxPool2d(3, stride=1)


def argmax_maxpool_forward(x, k):
    """The transpose/argmax/take_along_axis pooling MaxPool2d replaced,
    kept here as the tie-rule oracle: the first maximum of each window
    in row-major order wins."""
    batch, channels, height, width = x.shape
    out_h, out_w = height // k, width // k
    windows = x[:, :, : out_h * k, : out_w * k].reshape(
        batch, channels, out_h, k, out_w, k
    )
    windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
        batch, channels, out_h, out_w, k * k
    )
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, arg


def argmax_maxpool_backward(grad_out, x_shape, arg, k):
    batch, channels, _height, _width = x_shape
    out_h, out_w = arg.shape[2:]
    grad_windows = np.zeros(
        (batch, channels, out_h, out_w, k * k), dtype=grad_out.dtype
    )
    np.put_along_axis(grad_windows, arg[..., None], grad_out[..., None], axis=-1)
    grad_windows = grad_windows.reshape(batch, channels, out_h, out_w, k, k)
    grad_windows = grad_windows.transpose(0, 1, 2, 4, 3, 5).reshape(
        batch, channels, out_h * k, out_w * k
    )
    grad_in = np.zeros(x_shape, dtype=grad_out.dtype)
    grad_in[:, :, : out_h * k, : out_w * k] = grad_windows
    return grad_in


def same_bits(a, b):
    """Bitwise equality: tells -0.0 from 0.0, unlike assert_array_equal."""
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestMaxPool2dTieContract:
    """The strided MaxPool2d against the argmax oracle above, bit for bit.

    Inputs are heavy with what makes ties: ReLU zeros, small integers,
    and signed zeros (``np.maximum`` may pick either zero; the strided
    pool must keep the first, as argmax does).  Sizes include odd ones
    whose trailing rows/columns the pool drops.  NaN windows are out of
    contract — ``check_finite`` rejects non-finite values upstream — so
    no input here holds one.
    """

    @staticmethod
    def tie_heavy(rng, shape):
        kind = rng.integers(4)
        if kind == 0:  # ReLU output: about half exact zeros
            return np.maximum(rng.normal(size=shape), 0.0)
        if kind == 1:  # small integers: many exact ties
            return rng.integers(-2, 3, size=shape).astype(float)
        if kind == 2:  # signed zeros only
            return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        # a mix of signed zeros, integers and normals
        return rng.choice(
            np.array([-0.0, 0.0, 1.0, -1.0, 0.5]), size=shape
        ) * np.where(rng.random(shape) < 0.9, 1.0, rng.normal(size=shape))

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_argmax_oracle(self, k):
        rng = np.random.default_rng(2024 + k)
        for _ in range(150):
            shape = (
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                int(rng.integers(k, 3 * k + 2)),
                int(rng.integers(k, 3 * k + 2)),
            )
            x = self.tie_heavy(rng, shape)
            layer = MaxPool2d(k)
            out = layer.forward(x, training=True)
            ref_out, arg = argmax_maxpool_forward(x, k)
            assert same_bits(out, ref_out)
            grad_out = self.tie_heavy(rng, out.shape) + rng.normal(size=out.shape)
            grad_out[rng.random(out.shape) < 0.3] = -0.0
            assert same_bits(
                layer.backward(grad_out),
                argmax_maxpool_backward(grad_out, x.shape, arg, k),
            )

    def test_signed_zero_first_wins(self):
        layer = MaxPool2d(2)
        x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]]])
        out = layer.forward(x, training=True)
        assert np.signbit(out[0, 0, 0, 0])  # -0.0 came first
        grad = layer.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_inference_forward_matches_training_forward(self, rng):
        x = np.maximum(rng.normal(size=(2, 3, 7, 9)), 0.0)
        assert same_bits(
            MaxPool2d(3).forward(x, training=False),
            MaxPool2d(3).forward(x, training=True),
        )
