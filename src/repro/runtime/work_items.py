"""Picklable units of HFL work shipped between the trainer and workers.

The engine's unit of parallelism is one device's local-update loop at
one ``(time step, edge)`` round.  A :class:`LocalUpdateItem` carries
only scalar coordinates and hyper-parameters — the edge's start model
travels once per :class:`EdgeRoundPlan` (on the process pool, once per
worker chunk holding the round's items), and the bulky immutable state
(scratch model architecture, device datasets) ships once per worker
inside a :class:`WorkerContext`.

Determinism contract: an item's randomness is derived solely from
``(master_seed, step, edge, device)`` via
:meth:`repro.utils.rng.SeedSequenceFactory.work_item_generator`, so any
executor backend — regardless of worker count, scheduling or completion
order — reproduces the serial run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hfl.device import Device, LocalUpdateResult
from repro.nn.population import PopulationModel, supports_population_batch
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LocalUpdateItem:
    """One device's I local SGD steps at one ``(step, edge)`` round."""

    step: int
    edge: int
    device_id: int
    local_epochs: int
    learning_rate: float
    batch_size: int


@dataclass(frozen=True)
class EdgeRoundPlan:
    """All sampled local updates of one edge round, sharing one start model.

    ``start_model`` is the edge model ``w^t_n`` every item downloads —
    kept once per plan so the process backend serializes the parameter
    vector once per worker chunk holding the round's items, not once
    per device.
    """

    step: int
    edge: int
    start_model: np.ndarray
    items: Tuple[LocalUpdateItem, ...]


#: Round results keyed by device id, aligned with one :class:`EdgeRoundPlan`.
RoundResults = Dict[int, LocalUpdateResult]


class WorkerContext:
    """Per-worker immutable state: scratch model, devices, master seed.

    One context is built by the trainer and handed to the executor via
    :meth:`repro.runtime.base.Executor.bind`.  The process backend
    ships it once per pool worker (pickled on spawn platforms,
    inherited by fork otherwise), so each worker gets a private scratch
    model and its own copy of the device datasets.

    Flat-buffer aliasing contract: the scratch model's parameters are
    numpy views into one canonical flat vector
    (:meth:`repro.nn.model.Model.flat_view`), and numpy serializes a
    view as a standalone array.  ``Model.__getstate__`` therefore drops
    the alias state, so the pickle that ships a context to a pool
    worker carries plain per-parameter arrays that re-alias lazily into
    a fresh private buffer on first flat access — the same
    transient-scratch discipline as
    :class:`repro.nn.functional.ConvWorkspace`.
    """

    #: Per-worker scratch state rebuilt lazily after a pickle: the
    #: population matrices are plain capacity-sized buffers a fresh
    #: worker re-allocates on first batched round.
    _TRANSIENT_ATTRS = ("_pop_model", "_pop_supported")

    def __init__(
        self, model, devices: Sequence[Device], master_seed: int
    ) -> None:
        if not devices:
            raise ValueError("worker context needs at least one device")
        self.model = model
        self.devices = list(devices)
        self.seeds = SeedSequenceFactory(master_seed)
        self._pop_model: Optional[PopulationModel] = None
        self._pop_supported: Optional[bool] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for attr in self._TRANSIENT_ATTRS:
            state.pop(attr, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pop_model = None
        self._pop_supported = None

    @property
    def master_seed(self) -> int:
        return self.seeds.master_seed

    def run_item(
        self, start_model: np.ndarray, item: LocalUpdateItem
    ) -> LocalUpdateResult:
        """Execute one local update with its deterministic named stream."""
        device = self._device_for(item)
        rng = self.seeds.work_item_generator(item.step, item.edge, item.device_id)
        try:
            return device.local_update(
                start_model,
                self.model,
                item.local_epochs,
                item.learning_rate,
                item.batch_size,
                rng=rng,
            )
        except Exception as exc:
            exc.work_item = item
            raise

    def _device_for(self, item: LocalUpdateItem) -> Device:
        """The item's device; an error names the item as ``work_item``
        (an exception attribute, so it survives the pickle back from a
        pool worker)."""
        try:
            device = self.devices[item.device_id]
            if device.device_id != item.device_id:
                raise ValueError(
                    f"device list is not indexed by id: slot {item.device_id} "
                    f"holds device {device.device_id}"
                )
        except Exception as exc:
            exc.work_item = item
            raise
        return device

    def _population_model(self) -> PopulationModel:
        if self._pop_model is None:
            self._pop_model = PopulationModel(self.model)
        return self._pop_model

    def _batchable(self, items: Tuple[LocalUpdateItem, ...]) -> bool:
        """Whether ``items`` can run as one stacked population pass.

        Requires a model :func:`supports_population_batch` accepts and a
        homogeneous batch: identical hyper-parameters, one effective
        minibatch size (``min(batch_size, |D_m|)``), and one feature
        shape across all devices.  A heterogeneous round falls back to
        the per-device loop item by item; a heterogeneous chunk of
        several rounds, one round at a time (:meth:`run_items`).
        """
        if len(items) < 2:
            return False
        if self._pop_supported is None:
            self._pop_supported = supports_population_batch(self.model)
        if not self._pop_supported:
            return False
        first = items[0]
        size: Optional[int] = None
        feat: Optional[Tuple[int, ...]] = None
        for item in items:
            if (
                item.local_epochs != first.local_epochs
                or item.learning_rate != first.learning_rate
                or item.batch_size != first.batch_size
            ):
                return False
            dataset = self._device_for(item).dataset
            effective = min(item.batch_size, len(dataset))
            if size is None:
                size, feat = effective, dataset.feature_shape
            elif effective != size or dataset.feature_shape != feat:
                return False
        return True

    def run_items(
        self,
        starts: Union[np.ndarray, Sequence[np.ndarray]],
        items: Sequence[LocalUpdateItem],
        rows: Optional[Sequence[int]] = None,
    ) -> List[Tuple[int, LocalUpdateResult]]:
        """Execute many local updates, stacked into one population pass
        when possible (results in item order either way).

        ``starts`` is the start model every item downloads or, with
        ``rows``, a sequence of start models of which item ``i`` starts
        from ``starts[rows[i]]`` — a step chunk spans several edge rounds.  Such a chunk runs as one stacked pass when it is
        homogeneous as a whole, and otherwise one start model's slice
        at a time (each slice stacked when it can be).

        Each device still draws its minibatch indices from its own
        ``(step, edge, device)`` named stream — the stacked pass changes
        how the math executes, never what is computed, and each result
        is bit-identical to :meth:`run_item`'s.
        """
        items = tuple(items)
        batchable = self._batchable(items)
        if rows is not None and not batchable:
            pairs: List[Tuple[int, LocalUpdateResult]] = []
            for row, group in groupby(zip(rows, items), key=itemgetter(0)):
                pairs.extend(
                    self.run_items(starts[row], [item for _, item in group])
                )
            return pairs
        if not batchable:
            return [
                (item.device_id, self.run_item(starts, item))
                for item in items
            ]
        if rows is not None:
            starts = np.stack([starts[row] for row in rows])
        first = items[0]
        epochs = first.local_epochs
        check_positive("local_epochs", epochs)
        check_positive("learning_rate", first.learning_rate)
        check_positive("batch_size", first.batch_size)
        devices = [self._device_for(item) for item in items]
        size = min(first.batch_size, len(devices[0].dataset))
        feat = devices[0].dataset.feature_shape
        xs = np.empty((epochs, len(items), size) + feat)
        ys = np.empty((epochs, len(items), size), dtype=int)
        for slot, (item, device) in enumerate(zip(items, devices)):
            rng = self.seeds.work_item_generator(
                item.step, item.edge, item.device_id
            )
            xs[:, slot], ys[:, slot] = device.dataset.sample_batches(
                epochs, first.batch_size, rng=rng
            )
        finals, losses, grad_sq = self._population_model().local_updates(
            starts, xs, ys, first.learning_rate
        )
        # One reduction per chunk; each row's mean has the bits of
        # np.mean over that row alone.
        return [
            (
                item.device_id,
                LocalUpdateResult(
                    device_id=item.device_id,
                    final_model=final,
                    grad_sq_norms=norms,
                    mean_loss=loss,
                ),
            )
            for item, final, norms, loss in zip(
                items, finals, grad_sq.tolist(), losses.mean(axis=1).tolist()
            )
        ]
