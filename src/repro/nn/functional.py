"""Stateless tensor operations shared by the layer implementations.

The conv helpers optionally take a :class:`ConvWorkspace` — a per-layer
bag of reusable scratch buffers keyed by geometry — so the hot training
loop stops paying a fresh pad + column allocation on every forward and
a fresh accumulation image on every backward.  Passing no workspace
preserves the original allocate-per-call behaviour bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np


class ConvWorkspace:
    """Reusable conv scratch buffers, one per ``(tag, trailing shape)``.

    One workspace belongs to one layer instance (or one stacked conv of
    a population model) and is therefore only ever touched by one
    thread at a time (process workers own their copy of the model).  A call gets the leading rows of its tag's
    buffer, which is reallocated only when a call needs more rows than
    it has: the smaller final batch of an epoch, or a population round
    of fewer devices, reuses the prefix of the largest buffer so far,
    so scratch memory is bounded by the largest batch, not by the
    number of distinct batch sizes.  A trailing-shape or dtype mismatch
    gets its own entry.

    Invalidation rule for callers: an array obtained from a workspace
    (including views of it returned by :func:`im2col` / :func:`col2im`)
    is valid until the owning layer's *next* forward/backward call, which
    overwrites it in place.  The engine's forward→backward→forward
    cadence never violates this; code that retains conv activations or
    gradients across calls must copy them first.

    Workspaces are pure scratch: deep copies and pickles (worker-context
    clones, process-pool shipping, checkpoints) intentionally reset them
    to empty instead of hauling dead buffers around.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}

    def get(
        self,
        tag: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
        zero_on_alloc: bool = False,
    ) -> np.ndarray:
        """A C-contiguous ``shape`` buffer: the first ``shape[0]`` rows
        of the cached buffer for ``(tag, shape[1:], dtype)``, grown to
        ``shape`` when it has fewer rows.

        ``zero_on_alloc`` zero-fills *freshly allocated* buffers only —
        the pad buffer needs zero borders, and those are never written
        afterwards (in any row), so a cache hit can skip the memset.
        """
        key = (tag, shape[1:], np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < shape[0]:
            alloc = np.zeros if zero_on_alloc else np.empty
            buffer = alloc(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer[: shape[0]]

    def __deepcopy__(self, memo) -> "ConvWorkspace":
        return ConvWorkspace()

    def __reduce__(self):
        return (ConvWorkspace, ())


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` of shape (B,) as a (B, num_classes) matrix."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must be in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=float)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    workspace: Optional[ConvWorkspace] = None,
) -> Tuple[np.ndarray, int, int]:
    """Unfold a batch of images into convolution columns.

    Parameters
    ----------
    x:
        Input of shape (B, C, H, W).
    kernel, stride, padding:
        Square window geometry.
    workspace:
        Reusable pad/column buffers; when given, the returned ``cols``
        is a workspace buffer valid until the next call with the same
        workspace (see :class:`ConvWorkspace`).  Values are bit-identical
        either way.

    Returns
    -------
    cols:
        Array of shape (B, C * kernel * kernel, out_h * out_w).
    out_h, out_w:
        Output spatial dimensions.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)

    if padding > 0:
        if workspace is None:
            x = np.pad(
                x,
                ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                mode="constant",
            )
        else:
            # The borders are zeroed once at allocation and never
            # written, so a cache hit only copies the interior.
            padded = workspace.get(
                "pad",
                (
                    batch,
                    channels,
                    height + 2 * padding,
                    width + 2 * padding,
                ),
                x.dtype,
                zero_on_alloc=True,
            )
            padded[:, :, padding : padding + height, padding : padding + width] = x
            x = padded

    # Strided sliding-window view: (B, C, out_h, out_w, kernel, kernel)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    gathered = windows.transpose(0, 1, 4, 5, 2, 3)
    cols_shape = (batch, channels * kernel * kernel, out_h * out_w)
    if workspace is None:
        return np.ascontiguousarray(gathered.reshape(cols_shape)), out_h, out_w
    cols = workspace.get("cols", cols_shape, x.dtype)
    cols.reshape(batch, channels, kernel, kernel, out_h, out_w)[...] = gathered
    return cols, out_h, out_w


def conv_forward(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Conv output ``w @ cols``: (..., O, K) by (..., B, K, P) → (..., B, O, P).

    The three conv contractions run over leading axes, so a device's
    (O, K) weight and a population's (D, O, K) stack issue the same 2-D
    gemm per (d, b) slice, and the stacked conv reproduces the layer
    bit for bit (DESIGN.md §14).
    """
    return np.matmul(w[..., None, :, :], cols)


def conv_weight_grad(grad: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Weight gradient ``Σ_b grad_b @ cols_bᵀ`` → (..., O, K)."""
    return np.matmul(grad, np.swapaxes(cols, -1, -2)).sum(axis=-3)


def conv_cols_grad(w: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Column gradient ``wᵀ @ grad`` → (..., B, K, P), for :func:`col2im`."""
    return np.matmul(np.swapaxes(w, -1, -2)[..., None, :, :], grad)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    workspace: Optional[ConvWorkspace] = None,
) -> np.ndarray:
    """Fold convolution columns back into an image, summing overlaps.

    Inverse (adjoint) of :func:`im2col`; used for the convolution
    backward pass with respect to the input.  With a ``workspace`` the
    returned gradient is (a view of) a reused accumulation buffer —
    valid until the next call, per the :class:`ConvWorkspace`
    invalidation rule.  The buffer must be re-zeroed every call because
    the fold accumulates into it; this tag is distinct from the im2col
    pad buffer, whose borders rely on staying untouched.
    """
    batch, channels, height, width = x_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)

    padded_shape = (
        batch,
        channels,
        height + 2 * padding,
        width + 2 * padding,
    )
    if workspace is None:
        padded = np.zeros(padded_shape, dtype=cols.dtype)
    else:
        padded = workspace.get("col2im", padded_shape, cols.dtype)
        padded.fill(0.0)
    reshaped = cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            padded[:, :, ki:i_max:stride, kj:j_max:stride] += reshaped[:, :, ki, kj]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded
