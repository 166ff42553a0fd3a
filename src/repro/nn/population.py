"""Population-batched local updates: one stacked pass for many devices.

The PR-5 flat-buffer contract makes every model a contiguous flat
vector, so a *population* of D device replicas is naturally one
``(D, P)`` matrix whose row ``d`` is device ``d``'s flat parameters.
This module executes the Eq. (4) local-SGD loop for all of an edge
round's sampled devices at once over that matrix:

- Dense forward/backward run as stacked 3-D ``np.matmul`` calls —
  ``(D, B, F) @ (D, F, H)`` — whose per-slice operands are the *same*
  C-contiguous 2-D arrays the per-device loop feeds BLAS, so every
  device's slice reproduces its per-device result bit for bit;
- Conv2d runs ``im2col``/``col2im`` once over all D·B images and the
  same :mod:`repro.nn.functional` contraction helpers as the layer,
  whose per-``(d, b)`` gemm is the per-device one; MaxPool2d runs the
  layer itself over the D·B images;
- the walk back ends at the first layer with parameters, which skips
  its input gradient, as ``Sequential.backward(input_grad=False)``
  does;
- the fused SGD step collapses to one ``flat -= lr * grad`` over the
  whole ``(D, P)`` matrix;
- per-layer parameter tensors are zero-copy strided views into the
  population matrix (each device's parameter block is contiguous
  within its row, so a ``(D, *shape)`` view only needs the row stride
  prepended).

Bit-identity discipline (see DESIGN.md §14): every reduction runs along
the **last axis** of a C-contiguous array (where numpy's pairwise
summation behaves identically for a row of a stack and a standalone
vector), scalar reductions over non-contiguous axes (``sum(axis=1)`` of
``(D, B, H)``) accumulate rows in the same order as their 2-D
reference, and the per-device gradient-norm dot runs on the contiguous
``(P,)`` row exactly like the reference ``grad @ grad``.

The per-device loop (``Device.local_update``) runs every round this
path cannot stack: a single device, mixed hyper-parameters or minibatch
sizes, or a model :func:`supports_population_batch` rejects.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.functional import (
    ConvWorkspace,
    col2im,
    conv_cols_grad,
    conv_forward,
    conv_weight_grad,
    im2col,
)
from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.model import Model, Sequential, first_trainable

#: Layer types with a stacked twin below.
_STACKABLE = (Dense, Conv2d, ReLU, MaxPool2d, Flatten)


def supports_population_batch(model: Model) -> bool:
    """Whether ``model`` is a Sequential of Dense/Conv2d/ReLU/MaxPool2d/
    Flatten layers — the MLPs and both of the paper's CNNs.

    Anything else falls back to the per-device loop; Dropout in
    particular draws from a per-layer stream that stacking would
    reorder.
    """
    if not isinstance(model, Sequential):
        return False
    return all(type(layer) in _STACKABLE for layer in model.layers)


class _PopDense:
    """Stacked twin of :class:`repro.nn.layers.Dense`.

    ``w`` / ``b`` (and their grads) are strided views into the
    population matrices; slice ``d`` of each is device ``d``'s
    C-contiguous parameter block.
    """

    def __init__(
        self, w: np.ndarray, b: np.ndarray, gw: np.ndarray, gb: np.ndarray
    ) -> None:
        self.w = w
        self.b = b
        self.gw = gw
        self.gb = gb
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        # Per slice: x_d @ W_d + b_d — the reference Dense forward.
        return np.matmul(x, self.w) + self.b[:, None, :]

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        x = self._x
        # Per slice: W_d.grad += x_d.T @ g_d (same transposed dgemm the
        # 2-D reference issues), b_d.grad += g_d.sum(axis=0) (axis-1 of
        # the stack reduces rows in the same order as axis-0 of one
        # slice).
        self.gw += np.matmul(x.transpose(0, 2, 1), grad_out)
        self.gb += grad_out.sum(axis=1)
        if not input_grad:
            return None
        return np.matmul(grad_out, self.w.transpose(0, 2, 1))


class _PopConv2d:
    """Stacked twin of :class:`repro.nn.layers.Conv2d` on (D, B, C, H, W).

    The D·B images go through one :func:`im2col` / :func:`col2im` call
    (a reshape to (D·B, C, H, W)), and the three contractions are the
    layer's own helpers (:func:`conv_forward`, :func:`conv_weight_grad`,
    :func:`conv_cols_grad`) with a leading ``d``: each ``(d, b)`` slice
    is the gemm the layer issues, the weight gradient's batch sum over
    axis 1 adds the slices in the order of the layer's axis 0, and the
    bias gradient ``sum(axis=(1, 3))`` reduces each slice like the
    layer's ``sum(axis=(0, 2))``.  ``workspace`` outlives the round:
    the :class:`PopulationModel` keeps one per conv layer.
    """

    def __init__(
        self,
        conv: Conv2d,
        w: np.ndarray,
        b: np.ndarray,
        gw: np.ndarray,
        gb: np.ndarray,
        workspace: ConvWorkspace,
    ) -> None:
        self.geometry = (conv.kernel_size, conv.stride, conv.padding)
        # (D, O, C, k, k) → (D, O, C·k·k): the inner block is
        # contiguous, so this stays a view into the population matrix.
        self.w = w.reshape(w.shape[0], w.shape[1], -1)
        self.b = b
        self.gw = gw
        self.gb = gb
        self.workspace = workspace
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        pop, batch = x.shape[:2]
        images = x.reshape((pop * batch,) + x.shape[2:])
        cols, out_h, out_w = im2col(
            images, *self.geometry, workspace=self.workspace
        )
        cols = cols.reshape(pop, batch, cols.shape[1], cols.shape[2])
        out = conv_forward(self.w, cols)
        out += self.b[:, None, :, None]
        self._cache = (images.shape, cols)
        return out.reshape(pop, batch, -1, out_h, out_w)

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        images_shape, cols = self._cache
        pop, batch, channels = grad_out.shape[:3]
        grad_mat = grad_out.reshape(pop, batch, channels, -1)
        self.gw += conv_weight_grad(grad_mat, cols).reshape(self.gw.shape)
        self.gb += grad_mat.sum(axis=(1, 3))
        if not input_grad:
            return None
        grad_cols = conv_cols_grad(self.w, grad_mat)
        grad_in = col2im(
            grad_cols.reshape((pop * batch,) + grad_cols.shape[2:]),
            images_shape,
            *self.geometry,
            workspace=self.workspace,
        )
        return grad_in.reshape((pop, batch) + images_shape[1:])


class _PopMaxPool2d:
    """Stacked twin of MaxPool2d: the layer itself over (D·B, C, H, W)."""

    def __init__(self, pool: MaxPool2d) -> None:
        self.pool = MaxPool2d(pool.kernel_size, pool.stride)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.pool.forward(x.reshape((-1,) + x.shape[2:]))
        return out.reshape(x.shape[:2] + out.shape[1:])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.pool.backward(grad_out.reshape((-1,) + grad_out.shape[2:]))
        return grad.reshape(grad_out.shape[:2] + grad.shape[1:])


class _PopReLU:
    """Stacked twin of the hot-path ReLU (fused max + cached mask)."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_out, 0.0)


class _PopFlatten:
    """Stacked twin of Flatten: (D, B, ...) → (D, B, F)."""

    def __init__(self) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class _PopSoftmaxCrossEntropy:
    """Stacked twin of the hot-path fused softmax cross-entropy.

    ``forward`` returns the per-device mean losses (shape ``(D,)``);
    every reduction runs along the last axis of a C-contiguous array so
    each slice matches its 2-D reference bit for bit.
    """

    def __init__(self) -> None:
        self._cache = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / np.sum(exp, axis=-1, keepdims=True)
        picked = np.take_along_axis(probs, labels[:, :, None], axis=2)[:, :, 0]
        losses = -np.mean(
            np.log(np.clip(picked, 1e-12, None)), axis=-1
        )
        self._cache = (probs, labels)
        return losses

    def backward(self) -> np.ndarray:
        probs, labels = self._cache
        pop, batch, _classes = probs.shape
        grad = probs.copy()
        grad[
            np.arange(pop)[:, None], np.arange(batch)[None, :], labels
        ] -= 1.0
        grad /= batch
        return grad


class PopulationModel:
    """D stacked replicas of one :func:`supports_population_batch` model.

    Owns two ``(capacity, P)`` matrices (values and grads) whose rows
    are per-device flat vectors in the template model's canonical
    parameter order, growing geometrically as rounds need more rows,
    and one :class:`ConvWorkspace` per conv layer for its lifetime.
    :meth:`local_updates` runs the full fused Eq. (4) loop for the
    leading ``D`` rows.
    """

    def __init__(self, template: Model, capacity: int = 0) -> None:
        if not supports_population_batch(template):
            raise ValueError(
                "population batching supports Sequential "
                "Dense/Conv2d/ReLU/MaxPool2d/Flatten models only, "
                f"got {type(template).__name__}"
            )
        # One parameter walk pins the canonical flat layout; the
        # template's own buffers are never touched.
        params = template.parameters()
        self._layout = []  # (template layer, [(offset, shape), ...])
        offset = 0
        cursor = 0
        for layer in template.layers:
            layer_params = layer.parameters()
            spans = []
            for p in layer_params:
                if p is not params[cursor]:  # pragma: no cover - defensive
                    raise RuntimeError("parameter order diverged from layout")
                spans.append((offset, p.shape))
                offset += p.size
                cursor += 1
            self._layout.append((layer, spans))
        # The backward walk ends at this layer's parameter gradients,
        # exactly like Sequential.backward(input_grad=False).
        self._first = first_trainable(template.layers)
        self._workspaces = [
            ConvWorkspace() if type(layer) is Conv2d else None
            for layer in template.layers
        ]
        self.num_parameters = offset
        self.capacity = 0
        self.flat = np.empty((0, self.num_parameters))
        self.grad = np.empty((0, self.num_parameters))
        if capacity:
            self.ensure(capacity)

    def ensure(self, population: int) -> None:
        """Grow the population matrices to hold ``population`` rows."""
        if population <= self.capacity:
            return
        new_cap = max(population, 2 * self.capacity)
        self.flat = np.empty((new_cap, self.num_parameters))
        self.grad = np.empty((new_cap, self.num_parameters))
        self.capacity = new_cap

    def _view(
        self, base: np.ndarray, population: int, offset: int, shape: Tuple[int, ...]
    ) -> np.ndarray:
        """A writable ``(population, *shape)`` view of one parameter block.

        Each device's block is contiguous within its row, so the view
        is the block's C-order strides with the row stride prepended —
        no copy, and slice ``d`` is exactly the array the reference
        layer owns.
        """
        block_strides = []
        running = base.itemsize
        for dim in reversed(shape):
            block_strides.insert(0, running)
            running *= dim
        return as_strided(
            base[:population, offset:],
            shape=(population,) + tuple(shape),
            strides=(base.strides[0],) + tuple(block_strides),
        )

    def _build_layers(self, population: int) -> List[object]:
        layers: List[object] = []
        for (layer, spans), workspace in zip(self._layout, self._workspaces):
            kind = type(layer)
            if kind in (Dense, Conv2d):
                views = [
                    self._view(base, population, off, shape)
                    for base in (self.flat, self.grad)
                    for off, shape in spans
                ]
                if kind is Dense:
                    layers.append(_PopDense(*views))
                else:
                    layers.append(_PopConv2d(layer, *views, workspace))
            elif kind is MaxPool2d:
                layers.append(_PopMaxPool2d(layer))
            elif kind is ReLU:
                layers.append(_PopReLU())
            else:
                layers.append(_PopFlatten())
        return layers

    def local_updates(
        self,
        start_model: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        learning_rate: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the fused Eq. (4) loop for a stacked population.

        ``xs`` is ``(I, D, B, ...)`` and ``ys`` ``(I, D, B)`` — all I
        pre-drawn minibatches for each of D devices.  ``start_model`` is
        one ``(P,)`` vector every device starts from, or a ``(D, P)``
        matrix of per-device starts (a step chunk spanning several edge
        rounds); each slice's math never reads another row, so
        either way a row's result depends on its own start only.  Returns
        ``(final_models (D, P), losses (D, I), grad_sq_norms (D, I))``,
        each row bit-identical to the per-device reference loop.
        """
        epochs, population = xs.shape[0], xs.shape[1]
        self.ensure(population)
        flat = self.flat[:population]
        grad = self.grad[:population]
        flat[...] = start_model
        layers = self._build_layers(population)
        first = self._first
        loss_fn = _PopSoftmaxCrossEntropy()
        losses = np.empty((population, epochs))
        grad_sq = np.empty((population, epochs))
        for tau in range(epochs):
            grad.fill(0.0)
            out = xs[tau]
            for layer in layers:
                out = layer.forward(out)
            losses[:, tau] = loss_fn.forward(out, ys[tau])
            g = loss_fn.backward()
            if first is not None:
                for layer in reversed(layers[first + 1 :]):
                    g = layer.backward(g)
                layers[first].backward(g, input_grad=False)
            # w^{t,τ+1} = w^{t,τ} − γ g for every device at once.
            flat -= learning_rate * grad
            for d in range(population):
                row = grad[d]
                grad_sq[d, tau] = float(row @ row)
        return flat.copy(), losses, grad_sq
