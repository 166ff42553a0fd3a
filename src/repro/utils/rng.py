"""Deterministic random-number management for reproducible simulations.

Every stochastic component in the library (data synthesis, Non-IID
partitioning, mobility traces, device sampling, SGD minibatching) draws
from an explicit :class:`numpy.random.Generator`.  Components never touch
the global numpy RNG; instead a :class:`SeedSequenceFactory` derives
independent child streams by name, so adding a new consumer never
perturbs the random stream of an existing one.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts an integer seed, an existing generator (returned as-is), a
    ``SeedSequence``, or ``None`` (fresh OS-entropy generator).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(rng)


class SeedSequenceFactory:
    """Derive named, independent random streams from one master seed.

    The factory hashes the requested stream name into ``spawn_key``
    material so that the stream for a given ``(master_seed, name)`` pair
    is stable across runs and across call order.

    Example
    -------
    >>> factory = SeedSequenceFactory(42)
    >>> data_rng = factory.generator("data")
    >>> mobility_rng = factory.generator("mobility")
    >>> factory.generator("data").normal() == data_rng.normal()
    True
    """

    def __init__(self, master_seed: Optional[int] = 0) -> None:
        if master_seed is not None and master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {master_seed}")
        self.master_seed = master_seed
        # (step, edge, key of "step/{step}/edge/{edge}/device/") of the
        # last work item: a step's items arrive grouped by edge round.
        self._work_prefix = (None, None, 0)

    @staticmethod
    def _name_key(name: str, key: int = 0) -> int:
        # Stable, platform-independent 63-bit hash of the stream name;
        # a name's key continues the key of any prefix of it.
        for ch in name:
            key = (key * 1000003 + ord(ch)) % (2**63 - 1)
        return key

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        """Return the :class:`SeedSequence` for stream ``name``."""
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self._name_key(name),)
        )

    def generator(self, name: str) -> np.random.Generator:
        """Return a fresh generator for stream ``name`` (stable per name)."""
        return np.random.default_rng(self.seed_sequence(name))

    # ---- work-item streams (parallel execution) ----------------------------

    @staticmethod
    def work_item_name(step: int, edge: int, device: int) -> str:
        """Canonical stream name of one ``(step, edge, device)`` work item."""
        if step < 0 or edge < 0 or device < 0:
            raise ValueError(
                f"work item coordinates must be non-negative, got "
                f"({step}, {edge}, {device})"
            )
        return f"step/{step}/edge/{edge}/device/{device}"

    def work_item_sequence(
        self, step: int, edge: int, device: int
    ) -> np.random.SeedSequence:
        """Seed sequence of the ``(step, edge, device)`` local-update stream.

        Parallel executors derive every work item's randomness from this
        stream, so the minibatch draws of a device's local update depend
        only on ``(master_seed, step, edge, device)`` — never on which
        worker ran the item or in what order items completed.  Serial
        and parallel runs therefore produce bit-identical histories.

        The key equals ``_name_key(work_item_name(step, edge, device))``,
        but the shared ``step/{s}/edge/{e}/device/`` prefix is folded
        once per edge round and only the device digits per item.
        """
        cached = self._work_prefix
        if cached[:2] != (step, edge) or device < 0:
            name = self.work_item_name(step, edge, device)
            cached = (step, edge, self._name_key(name[: name.rindex("/") + 1]))
            self._work_prefix = cached
        key = self._name_key(str(device), cached[2])
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=(key,))

    def work_item_generator(
        self, step: int, edge: int, device: int
    ) -> np.random.Generator:
        """Fresh generator for the ``(step, edge, device)`` work item."""
        return np.random.default_rng(self.work_item_sequence(step, edge, device))

    def round_generator(self, step: int, edge: int, role: str) -> np.random.Generator:
        """Per-``(step, edge)`` engine stream (e.g. participation draws).

        ``role`` namespaces independent per-round decisions — the
        trainer uses ``"participation"`` for the Bernoulli indicator
        draws and ``"probe/<m>"`` for MACH-P oracle probes — so each is
        order-independent like the work-item streams.
        """
        if step < 0 or edge < 0:
            raise ValueError(
                f"round coordinates must be non-negative, got ({step}, {edge})"
            )
        return self.generator(f"step/{step}/edge/{edge}/{role}")

    def child(self, name: str) -> "SeedSequenceFactory":
        """Derive a sub-factory whose streams are independent of the parent's."""
        return SeedSequenceFactory(self._name_key(name) ^ (self.master_seed or 0))
