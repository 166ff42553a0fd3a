"""In-memory labelled dataset container used across the library."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import RngLike, as_generator


class Dataset:
    """A labelled dataset: features ``x`` with integer labels ``y``.

    ``x`` is batch-first with arbitrary feature shape — (N, C, H, W) for
    image tasks, (N, F) for flat tasks.  Instances are immutable-by-
    convention; derived views (:meth:`subset`) share the underlying
    arrays.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, num_classes: int) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"feature/label count mismatch: {x.shape[0]} vs {y.shape[0]}"
            )
        if y.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {y.shape}")
        if num_classes <= 0:
            raise ValueError(f"num_classes must be positive, got {num_classes}")
        if y.size and (y.min() < 0 or y.max() >= num_classes):
            raise ValueError(
                f"labels out of range [0, {num_classes}): "
                f"[{y.min()}, {y.max()}]"
            )
        self.x = x
        self.y = y
        self.num_classes = num_classes

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def feature_shape(self) -> Tuple[int, ...]:
        """Shape of a single example (without the batch dimension)."""
        return self.x.shape[1:]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """A view of the examples at ``indices`` (labels preserved)."""
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.x[indices], self.y[indices], self.num_classes)

    def sample_batch(
        self, batch_size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniformly sample a minibatch with replacement (SGD's ξ in Eq. (4))."""
        if len(self) == 0:
            raise ValueError("cannot sample from an empty dataset")
        rng = as_generator(rng)
        idx = rng.integers(0, len(self), size=min(batch_size, len(self)))
        return self.x[idx], self.y[idx]

    def sample_batches(
        self, num_batches: int, batch_size: int, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pre-draw ``num_batches`` minibatches as stacked ``(I, B, …)`` arrays.

        One ``rng.integers`` call of shape ``(I, B)`` draws every index.
        ``Generator.integers`` fills its output one element at a time
        from the bit generator, which keeps any spare 32-bit half in its
        own state, so this call consumes the stream exactly as
        ``num_batches`` successive :meth:`sample_batch` calls do: every
        drawn index, and the stream left behind, is bit-identical to the
        sequential reference.  All features/labels are then gathered in
        one fancy-indexing pass for the batched Eq. (4) local updates.
        """
        if len(self) == 0:
            raise ValueError("cannot sample from an empty dataset")
        if num_batches <= 0:
            raise ValueError(f"num_batches must be positive, got {num_batches}")
        rng = as_generator(rng)
        size = min(batch_size, len(self))
        idx = rng.integers(0, len(self), size=(num_batches, size))
        return self.x[idx], self.y[idx]

    def class_distribution(self) -> np.ndarray:
        """Empirical label distribution as a length-``num_classes`` simplex vector."""
        counts = np.bincount(self.y, minlength=self.num_classes).astype(float)
        total = counts.sum()
        if total == 0:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return counts / total

    def class_counts(self) -> np.ndarray:
        """Per-class example counts."""
        return np.bincount(self.y, minlength=self.num_classes)

    def shuffled(self, rng: RngLike = None) -> "Dataset":
        """A shuffled copy (new index order, shared storage semantics)."""
        rng = as_generator(rng)
        order = rng.permutation(len(self))
        return self.subset(order)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Dataset(n={len(self)}, feature_shape={self.feature_shape}, "
            f"num_classes={self.num_classes})"
        )


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, rng: RngLike = None
) -> Tuple[Dataset, Dataset]:
    """Random train/test split preserving ``num_classes``."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = as_generator(rng)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        raise ValueError("train split is empty; lower test_fraction")
    return dataset.subset(train_idx), dataset.subset(test_idx)
