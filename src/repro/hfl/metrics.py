"""Evaluation metrics and training-history bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.model import Model


def evaluate(
    model: Model, dataset: Dataset, batch_size: int = 256
) -> Tuple[float, float]:
    """Top-1 accuracy and mean cross-entropy of ``model`` on ``dataset``.

    One inference forward per batch feeds both the argmax and the
    cross-entropy; the loss is the per-batch mean losses weighted by
    batch size, summed in batch order.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    loss_fn = SoftmaxCrossEntropy()
    predictions = []
    total, count = 0.0, 0
    for start in range(0, len(dataset), batch_size):
        x = dataset.x[start : start + batch_size]
        y = dataset.y[start : start + batch_size]
        logits = model.forward(x, training=False)
        predictions.append(np.argmax(logits, axis=1))
        total += loss_fn.forward(logits, y) * len(y)
        count += len(y)
    accuracy = float(np.mean(np.concatenate(predictions) == dataset.y))
    return accuracy, total / count


@dataclass
class TrainingHistory:
    """Per-evaluation-point record of one HFL run."""

    steps: List[int] = field(default_factory=list)
    accuracy: List[float] = field(default_factory=list)
    loss: List[float] = field(default_factory=list)

    def record(self, step: int, accuracy: float, loss: float) -> None:
        if self.steps and step <= self.steps[-1]:
            raise ValueError(
                f"evaluation steps must be increasing, got {step} after "
                f"{self.steps[-1]}"
            )
        self.steps.append(step)
        self.accuracy.append(accuracy)
        self.loss.append(loss)

    def time_to_accuracy(self, target: float) -> Optional[int]:
        """First recorded step whose accuracy reaches ``target`` (None if never).

        This is the paper's headline metric: "the time steps of reaching
        the target accuracy" (§IV-A.2).
        """
        for step, acc in zip(self.steps, self.accuracy):
            if acc >= target:
                return step
        return None

    def best_accuracy(self) -> float:
        if not self.accuracy:
            raise ValueError("history is empty")
        return max(self.accuracy)

    def final_accuracy(self) -> float:
        if not self.accuracy:
            raise ValueError("history is empty")
        return self.accuracy[-1]

    def smoothed_accuracy(self, window: int = 3) -> List[float]:
        """Trailing moving average — the paper smooths over 3 repetitions."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        smoothed = []
        for i in range(len(self.accuracy)):
            lo = max(0, i - window + 1)
            smoothed.append(float(np.mean(self.accuracy[lo : i + 1])))
        return smoothed
