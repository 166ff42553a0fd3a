"""A small, self-contained numpy neural-network substrate.

The MACH paper trains its federated models with PyTorch; that framework
is unavailable in this reproduction environment, so :mod:`repro.nn`
provides the minimal training stack the paper needs: dense and
convolutional layers, ReLU / max-pool, softmax cross-entropy, plain SGD
and the exact CNN architectures of the evaluation section (2 conv + 2 FC
for MNIST/FMNIST, 3 conv + 2 FC for CIFAR10).

The federated-learning engine interacts with models exclusively through
flat parameter vectors and per-step stochastic gradients, which is all
the sampling algorithms observe.  A :class:`Model` owns one contiguous
flat buffer per tensor kind and every layer parameter is a numpy view
into it: :meth:`Model.load_flat` installs weights with one copy,
:meth:`Model.flat_copy` exports them, and :meth:`Model.flat_view` /
:meth:`Model.grad_view` expose the live buffers so a whole-network SGD
step is a single vector op.  The pre-facade aliases (``get_flat`` /
``set_flat`` / ``get_flat_parameters`` / ``set_flat_parameters``) are
gone — see README's migration table.
"""

from repro.nn.functional import ConvWorkspace, one_hot, softmax
from repro.nn.layers import (
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2d,
    ReLU,
)
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.model import Model, Sequential
from repro.nn.architectures import (
    build_cifar_cnn,
    build_logistic_regression,
    build_mlp,
    build_mnist_cnn,
    build_model,
)
from repro.nn.parameters import Parameter

__all__ = [
    "Conv2d",
    "Dense",
    "Dropout",
    "Flatten",
    "Layer",
    "MaxPool2d",
    "ReLU",
    "SoftmaxCrossEntropy",
    "Model",
    "Sequential",
    "Parameter",
    "ConvWorkspace",
    "one_hot",
    "softmax",
    "build_mnist_cnn",
    "build_cifar_cnn",
    "build_mlp",
    "build_logistic_regression",
    "build_model",
]
