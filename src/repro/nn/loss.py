"""Loss functions."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import softmax


class SoftmaxCrossEntropy:
    """Softmax activation fused with cross-entropy loss.

    ``forward`` returns the mean loss over the batch; ``backward``
    returns the gradient of that mean loss w.r.t. the logits, which is
    the standard ``(softmax - onehot) / B``.
    """

    def __init__(self) -> None:
        self._cache = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (B, C), got shape {logits.shape}")
        labels = np.asarray(labels, dtype=int)
        if labels.shape[0] != logits.shape[0]:
            raise ValueError(
                f"batch mismatch: logits {logits.shape[0]} vs labels {labels.shape[0]}"
            )
        probs = softmax(logits, axis=1)
        batch = logits.shape[0]
        picked = probs[np.arange(batch), labels]
        loss = float(-np.mean(np.log(np.clip(picked, 1e-12, None))))
        self._cache = (probs, labels)
        return loss

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, labels = self._cache
        batch = probs.shape[0]
        # Index-subtract: only the B label entries differ from the
        # softmax, so scattering -1 into them beats materializing (and
        # subtracting) a dense (B, C) one-hot matrix.  Subtracting 0.0
        # is exact, so this is bit-identical to ``(probs - onehot) / B``.
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        grad /= batch
        return grad

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy for a batch of logits."""
    if logits.shape[0] == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels, dtype=int)))
