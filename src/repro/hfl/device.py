"""Mobile devices: local datasets and the Eq. (4) local-updating loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LocalUpdateResult:
    """Outcome of one device's participation in one time step.

    ``grad_sq_norms`` holds ``‖g_m(w^{t,τ}, ξ^{t,τ})‖²`` for each of the
    I local steps — the training experience MACH buffers via Eq. (14).
    """

    device_id: int
    final_model: np.ndarray
    grad_sq_norms: List[float]
    mean_loss: float

    @property
    def mean_grad_sq_norm(self) -> float:
        return float(np.mean(self.grad_sq_norms))


class Device:
    """One mobile device holding a private local dataset."""

    def __init__(self, device_id: int, dataset: Dataset) -> None:
        if len(dataset) == 0:
            raise ValueError(f"device {device_id} has an empty dataset")
        self.device_id = device_id
        self.dataset = dataset

    def local_update(
        self,
        start_model: np.ndarray,
        model: Model,
        local_epochs: int,
        learning_rate: float,
        batch_size: int,
        rng: RngLike = None,
    ) -> LocalUpdateResult:
        """Run Eq. (4): I plain-SGD steps from the downloaded edge model.

        ``model`` is a shared scratch network — the trainer keeps a
        single instance per run and the device loads/saves flat
        parameter vectors around it, so a 100-device population does not
        hold 100 model copies.
        """
        check_positive("local_epochs", local_epochs)
        check_positive("learning_rate", learning_rate)
        check_positive("batch_size", batch_size)
        rng = as_generator(rng)
        loss_fn = SoftmaxCrossEntropy()

        grad_sq_norms: List[float] = []
        losses: List[float] = []
        # The model's parameters are views into its canonical flat
        # buffer, so one load_flat installs w^t_n and the fused sgd_lr
        # mode applies every w^{t,τ+1} = w^{t,τ} − γ g_m(w^{t,τ}, ξ^{t,τ})
        # step as a single vector op.  All I minibatches are pre-drawn
        # by one (I, B) rng.integers call, which consumes the stream
        # exactly like I successive sample_batch calls.
        model.load_flat(start_model)
        xs, ys = self.dataset.sample_batches(local_epochs, batch_size, rng=rng)
        for tau in range(local_epochs):
            loss, grad = model.loss_and_grad(
                xs[tau], ys[tau], loss_fn, sgd_lr=learning_rate
            )
            grad_sq_norms.append(float(grad @ grad))
            losses.append(loss)
        return LocalUpdateResult(
            device_id=self.device_id,
            final_model=model.flat_copy(),
            grad_sq_norms=grad_sq_norms,
            mean_loss=float(np.mean(losses)),
        )

    def probe_grad_sq_norm(
        self,
        at_model: np.ndarray,
        model: Model,
        batch_size: int,
        rng: RngLike = None,
    ) -> float:
        """Squared gradient norm at ``at_model`` on one fresh minibatch.

        Used by the trainer to feed oracle samplers (MACH-P) the true
        per-step training experience of *every* device, including those
        not sampled.
        """
        rng = as_generator(rng)
        model.load_flat(at_model)
        x, y = self.dataset.sample_batch(batch_size, rng=rng)
        _loss, grad = model.loss_and_grad(x, y)
        return float(grad @ grad)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Device(id={self.device_id}, samples={len(self.dataset)})"
