"""Synthetic stand-ins for the paper's image classification corpora.

The real MNIST / FMNIST / CIFAR10 downloads are unavailable offline, so
we synthesize 10-class image datasets that preserve what the paper's
experiments actually exercise:

- a classification task learnable by the paper's small CNNs,
- a task-difficulty ordering (mnist < fmnist < cifar10), realized here
  by decreasing class separation and increasing pixel noise,
- the input shapes of the originals (1×28×28 and 3×32×32) with reduced
  shapes available for fast CPU benchmarking.

Each class ``c`` gets a smooth random prototype image ``P_c`` (white
noise convolved with a Gaussian kernel); an example of class ``c`` is
``separation * P_c + noise * ε`` with fresh Gaussian ε.  Class overlap —
and thus task difficulty — is controlled by the separation/noise ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Recipe for one synthetic classification task.

    Attributes
    ----------
    name:
        Task identifier (``"mnist"``, ``"fmnist"``, ``"cifar10"``).
    input_shape:
        (C, H, W) of a single example.
    num_classes:
        Number of label classes (10 for all paper tasks).
    separation:
        Scale of the class prototype inside each example; larger means
        easier classes.
    noise:
        Standard deviation of per-example Gaussian pixel noise.
    smoothness:
        Gaussian-filter sigma used when drawing prototypes; larger gives
        lower-frequency (more image-like) class patterns.
    """

    name: str
    input_shape: Tuple[int, int, int]
    num_classes: int = 10
    separation: float = 1.0
    noise: float = 1.0
    smoothness: float = 2.0

    def scaled(self, image_size: int) -> "SyntheticTaskSpec":
        """The same task at a different square resolution."""
        check_positive("image_size", image_size)
        channels = self.input_shape[0]
        return replace(self, input_shape=(channels, image_size, image_size))


#: Paper-shape task specifications, difficulty-ordered like the originals.
TASK_SPECS: Dict[str, SyntheticTaskSpec] = {
    "mnist": SyntheticTaskSpec(
        name="mnist", input_shape=(1, 28, 28), separation=2.0, noise=0.6
    ),
    "fmnist": SyntheticTaskSpec(
        name="fmnist", input_shape=(1, 28, 28), separation=1.4, noise=0.9
    ),
    "cifar10": SyntheticTaskSpec(
        name="cifar10", input_shape=(3, 32, 32), separation=1.0, noise=1.2
    ),
}

#: Flat features of one ``blobs`` example.
BLOB_FEATURES = 16


def example_size(task: str, image_size: Optional[int] = None) -> int:
    """Values in one example of ``task``: its features, or C × H × W."""
    if task == "blobs":
        return BLOB_FEATURES
    if task not in TASK_SPECS:
        raise ValueError(f"unknown task {task!r}")
    spec = TASK_SPECS[task]
    if image_size is not None:
        spec = spec.scaled(image_size)
    return math.prod(spec.input_shape)


def _class_prototypes(
    spec: SyntheticTaskSpec, rng: np.random.Generator
) -> np.ndarray:
    """Draw one smooth random prototype image per class."""
    channels, height, width = spec.input_shape
    protos = rng.standard_normal((spec.num_classes, channels, height, width))
    if spec.smoothness > 0:
        from scipy import ndimage  # imported on use: scipy is heavy

        protos = ndimage.gaussian_filter(
            protos, sigma=(0, 0, spec.smoothness, spec.smoothness)
        )
    # Renormalize each prototype to unit RMS so `separation` is meaningful.
    rms = np.sqrt(np.mean(protos**2, axis=(1, 2, 3), keepdims=True))
    return protos / np.clip(rms, 1e-9, None)


def make_synthetic_image_dataset(
    task: str,
    num_samples: int,
    image_size: Optional[int] = None,
    rng: RngLike = None,
    labels: Optional[np.ndarray] = None,
    separation: Optional[float] = None,
    noise: Optional[float] = None,
) -> Dataset:
    """Generate a synthetic image dataset for ``task``.

    Parameters
    ----------
    task:
        A key of :data:`TASK_SPECS`.
    num_samples:
        Number of examples to draw (ignored when ``labels`` is given).
    image_size:
        Optional square resolution override (e.g. 8 or 12 for fast CPU
        benchmarks); ``None`` keeps the paper shape.
    labels:
        Optional explicit label vector; when provided, one example is
        generated per entry, enabling exact class-composition control.
    """
    if task not in TASK_SPECS:
        raise ValueError(f"unknown task {task!r}; choose from {list(TASK_SPECS)}")
    spec = TASK_SPECS[task]
    if image_size is not None:
        spec = spec.scaled(image_size)
    if separation is not None:
        spec = replace(spec, separation=check_positive("separation", separation))
    if noise is not None:
        spec = replace(spec, noise=check_positive("noise", noise, strict=False))
    rng = as_generator(rng)

    # Prototypes are drawn from a *named* stream keyed only by the task
    # spec so every dataset of the same task shares class geometry —
    # training and test sets must agree on what "class 3" looks like.
    proto_rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=abs(hash((spec.name, spec.input_shape))) % (2**63)
        )
    )
    protos = _class_prototypes(spec, proto_rng)

    if labels is None:
        check_positive("num_samples", num_samples)
        labels = rng.integers(0, spec.num_classes, size=num_samples)
    else:
        labels = np.asarray(labels, dtype=int)
    noise = rng.standard_normal((labels.shape[0],) + spec.input_shape)
    x = spec.separation * protos[labels] + spec.noise * noise
    return Dataset(x, labels, spec.num_classes)


@lru_cache(maxsize=16)
def _blob_centers(num_features: int, num_classes: int) -> np.ndarray:
    """The blob class centers, one read-only array per geometry.

    Drawn from a stream keyed only by ``(num_features, num_classes)``,
    so every blobs dataset of that geometry shares them; computed once
    instead of once per device dataset.
    """
    centers_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(num_features * 1009 + num_classes))
    )
    centers = centers_rng.standard_normal((num_classes, num_features))
    centers /= np.clip(
        np.linalg.norm(centers, axis=1, keepdims=True) / np.sqrt(num_features), 1e-9, None
    )
    centers.flags.writeable = False
    return centers


def make_blobs_dataset(
    num_samples: int,
    num_features: int = BLOB_FEATURES,
    num_classes: int = 10,
    separation: float = 2.0,
    noise: float = 1.0,
    rng: RngLike = None,
    labels: Optional[np.ndarray] = None,
) -> Dataset:
    """Gaussian-blobs flat-feature dataset for MLP tests and fast sweeps."""
    rng = as_generator(rng)
    centers = _blob_centers(num_features, num_classes)
    if labels is None:
        check_positive("num_samples", num_samples)
        labels = rng.integers(0, num_classes, size=num_samples)
    else:
        labels = np.asarray(labels, dtype=int)
    x = separation * centers[labels] + noise * rng.standard_normal(
        (labels.shape[0], num_features)
    )
    return Dataset(x, labels, num_classes)


def make_federated_task(
    task: str,
    num_devices: int,
    samples_per_device: int,
    test_samples: int = 1000,
    image_size: Optional[int] = None,
    alpha: float = 0.5,
    imbalance: float = 4.0,
    separation: Optional[float] = None,
    noise: Optional[float] = None,
    test_distribution: str = "global",
    rng: RngLike = None,
) -> Tuple[List[Dataset], Dataset]:
    """Build the paper's federated data layout for one task.

    Returns ``(device_datasets, test_dataset)`` where each device holds
    ``samples_per_device`` examples (the paper assumes equal |D_m|) and
    device class proportions are Non-IID (Dirichlet ``alpha`` around a
    long-tailed global prior with ratio ``imbalance``).

    ``test_distribution`` selects the evaluation distribution:
    ``"global"`` (default) draws test labels from the same long-tailed
    prior as training — the natural train/test split of the paper's
    "both the global and the devices' data distribution follow a
    long-tailed distribution" setup; ``"balanced"`` uses equal class
    counts (useful for rare-class diagnostics).
    """
    from repro.data.partition import (  # local import to avoid cycle
        equal_size_dirichlet_partition,
        long_tailed_class_weights,
    )

    if task not in TASK_SPECS and task != "blobs":
        raise ValueError(f"unknown task {task!r}")
    rng = as_generator(rng)
    num_classes = 10
    global_prior = long_tailed_class_weights(num_classes, imbalance=imbalance)
    device_labels = equal_size_dirichlet_partition(
        num_devices=num_devices,
        samples_per_device=samples_per_device,
        num_classes=num_classes,
        alpha=alpha,
        global_prior=global_prior,
        rng=rng,
    )

    blob_kwargs = {}
    if separation is not None:
        blob_kwargs["separation"] = separation
    if noise is not None:
        blob_kwargs["noise"] = noise

    devices = []
    for labels in device_labels:
        if task == "blobs":
            devices.append(make_blobs_dataset(0, rng=rng, labels=labels, **blob_kwargs))
        else:
            devices.append(
                make_synthetic_image_dataset(
                    task,
                    0,
                    image_size=image_size,
                    rng=rng,
                    labels=labels,
                    separation=separation,
                    noise=noise,
                )
            )

    if test_distribution == "balanced":
        test_labels = np.repeat(
            np.arange(num_classes), int(np.ceil(test_samples / num_classes))
        )[:test_samples]
    elif test_distribution == "global":
        test_labels = rng.choice(num_classes, size=test_samples, p=global_prior)
    else:
        raise ValueError(
            f"test_distribution must be 'global' or 'balanced', "
            f"got {test_distribution!r}"
        )
    if task == "blobs":
        test = make_blobs_dataset(0, rng=rng, labels=test_labels, **blob_kwargs)
    else:
        test = make_synthetic_image_dataset(
            task,
            0,
            image_size=image_size,
            rng=rng,
            labels=test_labels,
            separation=separation,
            noise=noise,
        )
    return devices, test
