"""Model containers with flat-parameter-vector access for FL aggregation.

Flat-buffer aliasing
--------------------
A :class:`Model` owns **one contiguous flat float vector** per buffer
(values and gradients); every layer's :class:`Parameter` is a reshaped
numpy *view* into it.  The engine's canonical operations then collapse
to single vector ops:

- ``load_flat(w)`` — one ``buf[...] = w`` copy updates every layer;
- ``flat_copy()`` — one ``buf.copy()`` reads every layer;
- the Eq. (4) SGD step ``flat -= lr * grad`` updates all layers in
  place with no per-parameter walk at all (see
  :meth:`Model.loss_and_grad`'s fused ``sgd_lr`` mode).

Aliasing is built lazily on first flat access and is *transparent*:
layers and optimizers keep mutating ``Parameter.value`` / ``.grad`` in
place, which numpy views propagate to the canonical buffers.  The alias
state is transient — :meth:`Model.__getstate__` drops it, so pickled /
deep-copied models (a process-pool worker's copy) ship plain
per-parameter arrays and re-alias lazily on their side, exactly like
:class:`~repro.nn.functional.ConvWorkspace` resets its scratch.

``flat_copy`` / ``load_flat`` are the only parameter-vector surface:
the pre-facade aliases (``get_flat`` / ``set_flat`` /
``get_flat_parameters`` / ``set_flat_parameters``) were removed when
``repro.api`` became the stability contract — see README's migration
table.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.parameters import Parameter

#: The lazily-built alias state: (flat values, flat grads, parameters,
#: per-parameter offsets, total scalar count).
_FlatState = Tuple[np.ndarray, np.ndarray, List[Parameter], List[int], int]


class Model:
    """Base model interface used by the HFL engine.

    The engine never inspects layers; it moves models around as flat
    parameter vectors (:meth:`flat_copy` / :meth:`load_flat`) and asks
    for per-minibatch loss gradients (:meth:`loss_and_grad`).
    """

    def parameters(self) -> List[Parameter]:
        raise NotImplementedError

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Accumulate parameter gradients; return the input gradient.

        ``input_grad=False`` may stop the walk once every parameter
        gradient is accumulated and return ``None`` —
        :meth:`loss_and_grad` never reads the input gradient.
        """
        raise NotImplementedError

    # ---- canonical flat storage -----------------------------------------

    #: Attributes rebuilt lazily after pickling / deep-copying.  Numpy
    #: serializes a view as a standalone array, which would silently
    #: break the value<->buffer aliasing; dropping the cache instead
    #: makes copies re-alias on first flat access.
    _TRANSIENT_ATTRS = ("_flat_cache",)

    def _flat_state(self) -> _FlatState:
        state = self.__dict__.get("_flat_cache")
        if state is None:
            state = self._alias_parameters()
        return state

    def _alias_parameters(self) -> _FlatState:
        """Build the canonical flat buffers and re-point parameters at them.

        Architectures are static after construction, so the parameter
        walk happens once; current values and gradients are copied into
        the contiguous buffers *before* each parameter is rebound, so
        aliasing never changes observable state.
        """
        params = self.parameters()
        offsets: List[int] = []
        total = 0
        for p in params:
            offsets.append(total)
            total += p.size
        flat = np.empty(total)
        grad = np.empty(total)
        for p, offset in zip(params, offsets):
            stop = offset + p.size
            flat[offset:stop] = p.value.ravel()
            grad[offset:stop] = p.grad.ravel()
            p.alias(
                flat[offset:stop].reshape(p.shape),
                grad[offset:stop].reshape(p.shape),
            )
        state: _FlatState = (flat, grad, params, offsets, total)
        self._flat_cache = state
        return state

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in self._TRANSIENT_ATTRS:
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return self._flat_state()[4]

    # ---- flat-vector API ------------------------------------------------

    def flat_view(self) -> np.ndarray:
        """The canonical flat parameter buffer itself.

        Mutations are live: every layer's ``Parameter.value`` is a view
        into this vector, so in-place edits (``view[...] = w``,
        ``view -= lr * g``) update the whole network with no per-layer
        walk.  Do **not** keep the returned array across a pickle /
        deepcopy of the model — copies own fresh buffers.
        """
        return self._flat_state()[0]

    def flat_copy(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Copy all parameters into one standalone flat vector.

        ``out``, when given, must be a float vector of length
        :attr:`num_parameters`; it is filled in place and returned so
        hot callers can reuse one scratch buffer.
        """
        flat = self._flat_state()[0]
        if out is None:
            return flat.copy()
        if out.shape != flat.shape:
            raise ValueError(
                f"out buffer has shape {out.shape}, expected {flat.shape}"
            )
        out[...] = flat
        return out

    def load_flat(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector: one copy into the canonical
        buffer updates every layer through its views."""
        buf = self._flat_state()[0]
        flat = np.asarray(flat, dtype=float)
        if flat.shape != buf.shape:
            raise ValueError(
                f"flat vector has shape {flat.shape}, expected {buf.shape}"
            )
        buf[...] = flat

    def grad_view(self) -> np.ndarray:
        """The canonical flat gradient buffer (live view, see :meth:`flat_view`)."""
        return self._flat_state()[1]

    def get_flat_grad(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Copy all accumulated gradients into one flat vector."""
        grad = self._flat_state()[1]
        if out is None:
            return grad.copy()
        if out.shape != grad.shape:
            raise ValueError(
                f"out buffer has shape {out.shape}, expected {grad.shape}"
            )
        out[...] = grad
        return out

    def zero_grad(self) -> None:
        """Reset accumulated gradients on every parameter."""
        self._flat_state()[1].fill(0.0)

    # ---- training helpers ----------------------------------------------

    def loss_and_grad(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss_fn: Optional[SoftmaxCrossEntropy] = None,
        out: Optional[np.ndarray] = None,
        sgd_lr: Optional[float] = None,
    ) -> Tuple[float, np.ndarray]:
        """One forward/backward pass; returns (loss, flat gradient).

        Gradients are zeroed first, so the returned vector is exactly the
        stochastic gradient ``g_m(w, ξ)`` of Eq. (4) for this minibatch.

        ``sgd_lr``, when given, fuses the Eq. (4) update into the call:
        after the backward accumulation the canonical buffer takes one
        ``flat -= sgd_lr * grad`` vector step — every layer updates in
        place through its views, with no flat round-trip.  In fused mode
        the returned gradient is the **live** :meth:`grad_view` (valid
        until the next backward pass) unless ``out`` is supplied.

        ``out``, when given, receives the flat gradient in place and is
        returned — hot callers pass one scratch buffer instead of
        allocating a fresh ``num_parameters``-sized vector per step.
        """
        loss_fn = loss_fn if loss_fn is not None else SoftmaxCrossEntropy()
        flat, grad = self._flat_state()[:2]
        grad.fill(0.0)
        logits = self.forward(x, training=True)
        loss = loss_fn.forward(logits, y)
        self.backward(loss_fn.backward(), input_grad=False)
        if sgd_lr is not None:
            # w^{t,τ+1} = w^{t,τ} − γ g — same elementwise arithmetic as
            # the reference path's standalone `flat -= lr * grad`.
            flat -= sgd_lr * grad
            if out is None:
                return loss, grad
            out[...] = grad
            return loss, out
        return loss, self.get_flat_grad(out=out)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions for ``x``, evaluated in inference mode."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start : start + batch_size], training=False)
            outputs.append(np.argmax(logits, axis=1))
        if not outputs:
            return np.zeros(0, dtype=int)
        return np.concatenate(outputs)


def first_trainable(layers: Sequence) -> Optional[int]:
    """Index of the first layer with parameters (``None`` if none has)."""
    for index, layer in enumerate(layers):
        if layer.parameters():
            return index
    return None


class Sequential(Model):
    """Plain stack of layers executed in order."""

    def __init__(self, layers: Iterable[Layer]) -> None:
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential needs at least one layer")

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Walk the layers in reverse; see :meth:`Model.backward`.

        With ``input_grad=False`` the walk ends at the first layer with
        parameters: it accumulates its parameter gradients and skips its
        input gradient (for a conv layer 0, the column-gradient matmul
        plus a col2im over the raw image), and the layers before it are not
        visited at all.  Parameter gradients are the same either way.
        """
        grad = grad_out
        if input_grad:
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            return grad
        first = first_trainable(self.layers)
        if first is None:
            return None
        for layer in reversed(self.layers[first + 1 :]):
            grad = layer.backward(grad)
        return self.layers[first].backward(grad, input_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential([{inner}], params={self.num_parameters})"
