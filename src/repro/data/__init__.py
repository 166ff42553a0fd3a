"""Datasets and Non-IID partitioning.

The paper trains on MNIST / FMNIST / CIFAR10 with long-tailed Non-IID
splits across 100 mobile devices.  The real corpora are not available
offline, so :mod:`repro.data.synthetic` generates class-structured image
datasets at the same shapes and with a controllable difficulty tier
(see DESIGN.md §4), and :mod:`repro.data.partition` reproduces the
long-tailed Non-IID device split.
"""

from repro.data.dataset import Dataset, train_test_split
from repro.data.partition import (
    dirichlet_partition,
    equal_size_dirichlet_partition,
    long_tailed_class_weights,
    partition_summary,
    shard_partition,
)
from repro.data.synthetic import (
    TASK_SPECS,
    SyntheticTaskSpec,
    make_blobs_dataset,
    make_federated_task,
    make_synthetic_image_dataset,
)

__all__ = [
    "Dataset",
    "train_test_split",
    "dirichlet_partition",
    "equal_size_dirichlet_partition",
    "long_tailed_class_weights",
    "shard_partition",
    "partition_summary",
    "SyntheticTaskSpec",
    "TASK_SPECS",
    "make_synthetic_image_dataset",
    "make_blobs_dataset",
    "make_federated_task",
]
