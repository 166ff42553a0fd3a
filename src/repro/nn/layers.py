"""Feed-forward layers with explicit forward/backward passes.

All layers follow the same contract:

- ``forward(x, training)`` consumes a batch and caches whatever the
  backward pass needs;
- ``backward(grad_out)`` consumes the gradient of the loss w.r.t. the
  layer output, *accumulates* parameter gradients into
  ``Parameter.grad`` and returns the gradient w.r.t. the layer input.
  Layers with parameters also take ``input_grad=False``, which skips
  the input gradient and returns ``None``: the first such layer of a
  network has no consumer for it (DESIGN.md §9).

Shapes are batch-first throughout: dense layers work on (B, F) and
convolutional layers on (B, C, H, W).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.functional import (
    ConvWorkspace,
    col2im,
    conv_cols_grad,
    conv_forward,
    conv_output_size,
    conv_weight_grad,
    im2col,
)
from repro.nn.parameters import Parameter


class Layer:
    """Base class; stateless layers only override forward/backward."""

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this layer (empty for stateless layers)."""
        return []

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``.

    Weights use He-uniform initialization, appropriate for the ReLU
    activations used throughout the paper's CNNs.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        name: str = "dense",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"in/out features must be positive, got {in_features}, {out_features}"
            )
        rng = rng if rng is not None else np.random.default_rng()
        bound = np.sqrt(6.0 / in_features)
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(in_features, out_features)),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias")
        self._cache_x: Optional[np.ndarray] = None

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects (B, F) input, got shape {x.shape}")
        if training:
            self._cache_x = x
        return x @ self.weight.value + self.bias.value

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache_x is None:
            raise RuntimeError("backward called before forward(training=True)")
        x = self._cache_x
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        if not input_grad:
            return None
        return grad_out @ self.weight.value.T


class ReLU(Layer):
    """Elementwise rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # np.maximum is a single fused ufunc pass; inference forwards
        # skip the mask entirely (it only feeds backward).
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        return np.where(self._mask, grad_out, 0.0)


class Flatten(Layer):
    """Reshape (B, ...) feature maps to (B, F) vectors."""

    def __init__(self) -> None:
        self._shape = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad_out.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Conv2d(Layer):
    """2-D convolution over (B, C, H, W) inputs using im2col.

    Square kernels only, which covers the paper's architectures.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
        name: str = "conv",
    ) -> None:
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("conv dimensions must be positive")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        rng = rng if rng is not None else np.random.default_rng()
        fan_in = in_channels * kernel_size * kernel_size
        bound = np.sqrt(6.0 / fan_in)
        self.weight = Parameter(
            rng.uniform(
                -bound, bound, size=(out_channels, in_channels, kernel_size, kernel_size)
            ),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name=f"{name}.bias")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._cache = None
        # Per-layer reusable pad/column/fold buffers (DESIGN.md §9);
        # resets to empty on deepcopy/pickle, so worker clones and
        # checkpoints never ship scratch memory.
        self._workspace = ConvWorkspace()

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (B, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = im2col(
            x, self.kernel_size, self.stride, self.padding, workspace=self._workspace
        )
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        out = conv_forward(w_mat, cols)
        out += self.bias.value[:, None]
        if training:
            self._cache = (x.shape, cols)
        return out.reshape(x.shape[0], self.out_channels, out_h, out_w)

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_shape, cols = self._cache
        batch = grad_out.shape[0]
        grad_mat = grad_out.reshape(batch, self.out_channels, -1)
        self.weight.grad += conv_weight_grad(grad_mat, cols).reshape(
            self.weight.value.shape
        )
        self.bias.grad += grad_mat.sum(axis=(0, 2))
        if not input_grad:
            return None

        w_mat = self.weight.value.reshape(self.out_channels, -1)
        grad_cols = conv_cols_grad(w_mat, grad_mat)
        return col2im(
            grad_cols,
            x_shape,
            self.kernel_size,
            self.stride,
            self.padding,
            workspace=self._workspace,
        )


class MaxPool2d(Layer):
    """Non-overlapping square max pooling (stride defaults to kernel size).

    The forward pass takes the max over the ``k*k`` strided slices
    ``x[:, :, i::k, j::k]`` in row-major window order, replacing the
    running max only where a later value is strictly greater, so each
    window keeps its *first* maximum — the tie rule of ``argmax`` over
    the flattened window, signed zeros included (``np.maximum`` may
    return either zero).  The backward pass routes each output gradient
    to that first maximum and zero elsewhere.  Inputs are finite by
    contract (``check_finite`` rejects NaN upstream); a NaN window has
    no defined maximum here.
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        if self.stride != self.kernel_size:
            raise NotImplementedError(
                "MaxPool2d currently supports stride == kernel_size only"
            )
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2d expects (B, C, H, W), got {x.shape}")
        k = self.kernel_size
        rows = conv_output_size(x.shape[2], k, k, 0) * k
        cols = conv_output_size(x.shape[3], k, k, 0) * k
        out = x[:, :, 0:rows:k, 0:cols:k].copy()
        for index in range(1, k * k):
            i, j = divmod(index, k)
            values = x[:, :, i:rows:k, j:cols:k]
            np.copyto(out, values, where=values > out)
        if training:
            self._cache = (x, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x, out = self._cache
        k = self.kernel_size
        rows, cols = out.shape[2] * k, out.shape[3] * k
        grad_in = np.zeros(x.shape, dtype=grad_out.dtype)
        # For finite inputs the first window value equal to the max is
        # the first maximum; `free` marks windows not yet routed.
        free = None
        for index in range(k * k):
            i, j = divmod(index, k)
            hit = x[:, :, i:rows:k, j:cols:k] == out
            if free is None:
                free = ~hit
            else:
                hit &= free
                free ^= hit
            np.copyto(grad_in[:, :, i:rows:k, j:cols:k], grad_out, where=hit)
        return grad_in
