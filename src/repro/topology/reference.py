"""Runnable pre-topology reference twin of the trainer's sync step.

The topology refactor replaced :meth:`HFLTrainer._sync_to_cloud` and
:meth:`HFLTrainer._virtual_global` with calls through the pluggable
:class:`~repro.topology.Topology` / :class:`~repro.topology
.AggregationStrategy` pair.  The default pair must be **bit-identical**
to the code it replaced — and, following the :mod:`repro.hotpath`
discipline, that claim stays checkable forever: this module keeps the
*verbatim* pre-refactor implementations alive as a trainer subclass.
``tests/topology/test_equivalence.py`` and ``benchmarks/
bench_topology.py --smoke`` run the same fixed-seed workload through
both trainers on every executor backend and assert the histories match
exactly.

Kept outside ``repro.topology.__init__`` so importing the topology
registry never drags in the trainer stack (the trainer itself imports
``repro.topology``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.hfl.trainer import HFLTrainer, TrainingResult


class ReferenceTwinTrainer(HFLTrainer):
    """The trainer with its pre-topology sync step, verbatim.

    Only meaningful with the default ``hierarchical`` + ``ipw``
    configuration (the code below *is* that pair, inlined); the
    constructor rejects anything else so a misconfigured twin cannot
    silently compare apples to oranges.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.config.topology != "hierarchical":
            raise ValueError(
                "the reference twin implements the hierarchical topology "
                f"only, config selects {self.config.topology!r}"
            )

    def _sync_to_cloud(self, t: int) -> None:
        counts = self.trace.counts_at(t)
        if self.fault_model is None:
            self.cloud.aggregate(self.edges, counts)
        else:
            uploads: List[np.ndarray] = []
            for n, edge in enumerate(self.edges):
                outcome = self.fault_model.sync_outcome(t, n)
                if outcome.success:
                    self._last_synced[n] = edge.model.copy()
                    uploads.append(edge.model)
                else:
                    uploads.append(self._last_synced[n])
                if outcome.failed_attempts > 0 or not outcome.success:
                    self.obs.sync_attempt(
                        t,
                        n,
                        outcome.failed_attempts,
                        used_stale=not outcome.success,
                        backoff_seconds=outcome.backoff_seconds,
                    )
            self.cloud.aggregate_models(uploads, counts)
        self.cloud.broadcast(self.edges)
        self.sampler.on_global_sync(t)

    def _virtual_global(self, t: int) -> np.ndarray:
        counts = self.trace.counts_at(t)
        total = counts.sum()
        aggregate = np.zeros_like(self.cloud.model)
        for edge, count in zip(self.edges, counts):
            if count > 0:
                aggregate += (count / total) * edge.model
        return aggregate


def run_reference(
    config,
    sampler_name: str,
    seed: Optional[int] = None,
    stop_at_target: bool = False,
    telemetry=None,
    resume_from=None,
) -> TrainingResult:
    """:func:`repro.experiments.runner.run_single`, on the twin trainer."""
    from repro.experiments.config import make_sampler
    from repro.experiments.runner import build_scenario, hfl_config_for

    seed = config.seed if seed is None else seed
    devices, test, trace, model_factory = build_scenario(config, seed)
    trainer = ReferenceTwinTrainer(
        model_factory=model_factory,
        device_datasets=devices,
        trace=trace,
        sampler=make_sampler(sampler_name, config),
        config=hfl_config_for(config, seed),
        test_dataset=test,
        telemetry=telemetry,
    )
    with trainer:
        return trainer.run(
            config.num_steps,
            target_accuracy=config.target_accuracy,
            stop_at_target=stop_at_target,
            resume_from=resume_from,
        )
