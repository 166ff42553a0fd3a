"""Bit-identity tests for the nn hot-path optimizations (DESIGN.md §9).

Every optimized path must reproduce its plain numpy formula exactly:
workspace-backed im2col/col2im vs fresh allocations, the index-subtract
cross-entropy backward vs ``(probs - onehot) / B``, ``np.maximum`` ReLU
vs ``np.where``, and gradient flattening into a caller-provided buffer
vs a fresh array.
"""

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.architectures import build_mnist_cnn
from repro.nn.functional import (
    ConvWorkspace,
    col2im,
    conv_cols_grad,
    conv_forward,
    conv_output_size,
    conv_weight_grad,
    im2col,
    one_hot,
    softmax,
)
from repro.nn.layers import Conv2d, ReLU
from repro.nn.loss import SoftmaxCrossEntropy


def conv_geometry():
    """Random (batch, channels, size, kernel, stride, padding) strategy."""
    return st.tuples(
        st.integers(1, 3),  # batch
        st.integers(1, 3),  # channels
        st.integers(4, 9),  # spatial size
        st.integers(1, 3),  # kernel
        st.integers(1, 2),  # stride
        st.integers(0, 2),  # padding
    )


class TestIm2colWorkspace:
    @given(conv_geometry(), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_matches_fresh_allocation(self, geometry, seed):
        batch, channels, size, kernel, stride, padding = geometry
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, size, size))
        workspace = ConvWorkspace()
        fresh, out_h, out_w = im2col(x, kernel, stride, padding)
        reused, wh, ww = im2col(x, kernel, stride, padding, workspace=workspace)
        assert (out_h, out_w) == (wh, ww)
        np.testing.assert_array_equal(fresh, reused)
        # Second call reuses the same buffers and must still be exact
        # (the pad buffer's zero borders are only written at allocation).
        x2 = rng.normal(size=x.shape)
        fresh2, _, _ = im2col(x2, kernel, stride, padding)
        reused2, _, _ = im2col(x2, kernel, stride, padding, workspace=workspace)
        np.testing.assert_array_equal(fresh2, reused2)

    @given(conv_geometry(), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_col2im_matches_fresh_allocation(self, geometry, seed):
        batch, channels, size, kernel, stride, padding = geometry
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        out_h = conv_output_size(size, kernel, stride, padding)
        out_w = conv_output_size(size, kernel, stride, padding)
        cols = rng.normal(
            size=(batch, channels * kernel * kernel, out_h * out_w)
        )
        shape = (batch, channels, size, size)
        workspace = ConvWorkspace()
        fresh = col2im(cols, shape, kernel, stride, padding)
        reused = col2im(cols, shape, kernel, stride, padding, workspace=workspace)
        np.testing.assert_array_equal(fresh, reused)
        # The accumulation buffer is re-zeroed on every call, so a
        # second fold through the same workspace cannot see stale sums.
        reused2 = col2im(cols, shape, kernel, stride, padding, workspace=workspace)
        np.testing.assert_array_equal(fresh, reused2)

    def test_batch_size_change_gets_own_buffer(self):
        rng = np.random.default_rng(0)
        workspace = ConvWorkspace()
        for batch in (4, 1, 4):  # full batch, epoch tail, full batch again
            x = rng.normal(size=(batch, 2, 6, 6))
            fresh, _, _ = im2col(x, 3, 1, 1)
            reused, _, _ = im2col(x, 3, 1, 1, workspace=workspace)
            np.testing.assert_array_equal(fresh, reused)

    def test_smaller_batch_reuses_prefix_and_larger_grows(self):
        workspace = ConvWorkspace()
        full = workspace.get("cols", (4, 3, 5), np.dtype(float))
        tail = workspace.get("cols", (2, 3, 5), np.dtype(float))
        assert tail.shape == (2, 3, 5) and tail.flags.c_contiguous
        assert np.shares_memory(tail, full)
        grown = workspace.get("cols", (6, 3, 5), np.dtype(float))
        assert grown.shape == (6, 3, 5)
        assert not np.shares_memory(grown, full)
        assert len(workspace._buffers) == 1

    def test_deepcopy_and_pickle_reset_to_empty(self):
        workspace = ConvWorkspace()
        workspace.get("pad", (2, 2), np.dtype(float))
        assert copy.deepcopy(workspace)._buffers == {}
        assert pickle.loads(pickle.dumps(workspace))._buffers == {}


class TestConvLayerParity:
    @given(conv_geometry(), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_forward_backward_bit_identical(self, geometry, seed):
        batch, channels, size, kernel, stride, padding = geometry
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        layer = Conv2d(
            channels, 2, kernel, stride=stride, padding=padding,
            rng=np.random.default_rng(seed),
        )
        x = rng.normal(size=(batch, channels, size, size))
        grad_seed = rng.normal(size=layer.forward(x, training=False).shape)

        def run():
            for parameter in layer.parameters():
                parameter.zero_grad()
            out = layer.forward(x, training=True)
            grad_in = layer.backward(grad_seed)
            # Copy: workspace-backed arrays are invalidated by the next
            # forward/backward through the same layer.
            return (
                out.copy(),
                grad_in.copy(),
                layer.weight.grad.copy(),
                layer.bias.grad.copy(),
            )

        # The same contractions on freshly allocated columns.
        cols, out_h, out_w = im2col(x, kernel, stride, padding)
        w_mat = layer.weight.value.reshape(2, -1)
        out = conv_forward(w_mat, cols) + layer.bias.value[None, :, None]
        grad_mat = grad_seed.reshape(batch, 2, -1)
        grad_in = col2im(
            conv_cols_grad(w_mat, grad_mat), x.shape, kernel, stride, padding
        )
        reference = (
            out.reshape(batch, 2, out_h, out_w),
            grad_in,
            conv_weight_grad(grad_mat, cols).reshape(layer.weight.value.shape),
            grad_mat.sum(axis=(0, 2)),
        )
        for _ in range(2):  # the second pass reuses the workspace
            for ref, opt in zip(reference, run()):
                np.testing.assert_array_equal(ref, opt)

    def test_deepcopied_layer_does_not_share_workspace(self):
        layer = Conv2d(1, 2, 3, padding=1, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 1, 6, 6))
        layer.forward(x, training=False)
        clone = copy.deepcopy(layer)
        assert clone._workspace is not layer._workspace
        assert clone._workspace._buffers == {}


class TestPointwiseParity:
    def test_relu_forward_matches_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7))
        x[0, 0] = 0.0
        layer = ReLU()
        for training in (True, False):
            optimized = layer.forward(x.copy(), training=training)
            np.testing.assert_array_equal(optimized, np.where(x > 0, x, 0.0))

    def test_softmax_backward_matches_one_hot_reference(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        loss_fn = SoftmaxCrossEntropy()
        loss_fn.forward(logits, labels)
        reference = (softmax(logits, axis=1) - one_hot(labels, 5)) / 6
        np.testing.assert_array_equal(loss_fn.backward(), reference)


class TestGradOutBuffer:
    def test_loss_and_grad_writes_into_caller_buffer(self):
        rng = np.random.default_rng(5)
        model = build_mnist_cnn(input_shape=(1, 8, 8), width=2, hidden=8, rng=rng)
        x = rng.normal(size=(4, 1, 8, 8))
        y = rng.integers(0, 10, size=4)
        loss_ref, grad_ref = model.loss_and_grad(x, y)
        out = np.empty_like(grad_ref)
        loss_out, grad_out = model.loss_and_grad(x, y, out=out)
        assert grad_out is out
        assert loss_out == loss_ref
        np.testing.assert_array_equal(grad_out, grad_ref)
