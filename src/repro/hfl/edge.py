"""Edges: device sampling execution and the Eq. (5) aggregation."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.hfl.device import LocalUpdateResult
from repro.prof import profile_site
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_finite, check_positive


class Edge:
    """One edge server: holds the edge model ``w^t_n`` between syncs."""

    def __init__(self, edge_id: int, capacity: float, model_dim: int) -> None:
        check_positive("capacity", capacity)
        check_positive("model_dim", model_dim)
        self.edge_id = edge_id
        self.capacity = float(capacity)
        self.model = np.zeros(model_dim)

    def set_model(self, flat: np.ndarray) -> None:
        """Load the edge model (e.g. the broadcast global model)."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != self.model.shape:
            raise ValueError(
                f"model must have shape {self.model.shape}, got {flat.shape}"
            )
        self.model = flat.copy()

    @staticmethod
    def draw_participation(
        probabilities: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Independent Bernoulli draws of the indicators ``1^t_{m,n}``."""
        probabilities = np.asarray(probabilities, dtype=float)
        if np.any(probabilities < 0) or np.any(probabilities > 1):
            raise ValueError("probabilities must be in [0, 1]")
        rng = as_generator(rng)
        return rng.random(probabilities.shape) < probabilities

    def aggregate(
        self,
        sampled: Sequence[int],
        probabilities: np.ndarray,
        results: Dict[int, LocalUpdateResult],
        num_members: int,
        mode: str = "delta",
        renormalize: bool = False,
    ) -> np.ndarray:
        """Aggregate the sampled devices' models (Eq. (5)) into ``w^{t+1}_n``.

        Only the sampled devices contribute, and Eq. (5)'s weight
        ``1/(|M^t_n| q)`` needs only the member *count*, so the cost is
        O(participants) however many members the edge holds.

        Parameters
        ----------
        sampled:
            The devices whose indicator was 1, in member order (the
            accumulation order, so it fixes the floating-point result).
        probabilities:
            Their strategy probabilities ``q^t_{m,n}``, aligned with
            ``sampled``.
        results:
            Local-update results keyed by device id, for the sampled
            devices whose upload survived; a sampled device absent from
            ``results`` is skipped.
        num_members:
            The member count ``|M^t_n|`` (participants and not).
        mode:
            ``"delta"`` aggregates inverse-probability-weighted model
            *updates* around the previous edge model — the unbiased
            gradient updating of Lemma 1, and numerically stable.
            ``"model"`` is the literal Eq. (5) raw-model sum (its
            realized weights only sum to 1 in expectation, the variance
            source §III-B.2 discusses).  ``"normalized"`` divides the
            raw-model sum by the realized weight total (biased, low
            variance).  ``"fedavg"`` averages the survivors' updates
            with weight ``1/len(results)``.  When no member
            participated, the edge keeps its previous model.
        renormalize:
            Divide the inverse-probability weights by their realized sum
            so they sum to 1 over the devices actually present in
            ``results``.  The trainer sets this when a fault dropped at
            least one sampled upload: the realized participation
            probability is then no longer the strategy's ``q``, so the
            raw Eq. (5) weights would over- or under-shoot and a
            survivor-weighted average is the graceful degradation.
            No-op for the already-normalized modes (``"normalized"``,
            ``"fedavg"``).
        """
        if mode not in ("delta", "model", "normalized", "fedavg"):
            raise ValueError(f"unknown aggregation mode {mode!r}")
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (len(sampled),):
            raise ValueError(
                f"probabilities must align with sampled: "
                f"{probabilities.shape} vs {len(sampled)}"
            )
        if not results:
            return self.model

        with profile_site("hfl", "edge_aggregate", edge=self.edge_id):
            total_weight = 0.0
            accumulator = np.zeros_like(self.model)
            for device_id, q in zip(sampled, probabilities):
                result = results.get(device_id)
                if result is None:
                    continue
                if q <= 0:
                    raise ValueError(
                        f"device {device_id} participated with probability {q}"
                    )
                if mode == "fedavg":
                    weight = 1.0 / len(results)
                else:
                    weight = 1.0 / (num_members * q)
                total_weight += weight
                if mode in ("delta", "fedavg"):
                    accumulator += weight * (result.final_model - self.model)
                else:
                    accumulator += weight * result.final_model

            if renormalize and mode in ("delta", "model"):
                accumulator = accumulator / total_weight
            if mode in ("delta", "fedavg"):
                self.model = self.model + accumulator
            elif mode == "model":
                self.model = accumulator
            else:  # normalized
                self.model = accumulator / total_weight
        check_finite("aggregated edge model", self.model)
        return self.model
