"""The paper's cloud→edge→device tree and its Eq. (6) aggregation.

``HierarchicalTopology`` + ``IPWAggregation`` is the engine default and
the reference pair: its sync step delegates to the exact pre-topology
code paths (:meth:`Cloud.aggregate_models` then broadcast), so a run
with the default pair is **bit-identical** to the pre-refactor trainer
on every executor backend — ``tests/topology/test_equivalence.py``
asserts it against golden fingerprints recorded with that trainer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topology.base import AggregationStrategy, SyncPlan, Topology


class HierarchicalTopology(Topology):
    """All edges upload to one cloud, which broadcasts back (Eq. (6))."""

    name = "hierarchical"
    has_cloud = True

    def sync_plan(self, t: int, counts: np.ndarray) -> SyncPlan:
        num_edges = self._require_bound()
        everyone = tuple(range(num_edges))
        return SyncPlan(
            step=t, groups=(everyone,), group_of=(0,) * num_edges
        )


class IPWAggregation(AggregationStrategy):
    """Member-count-weighted cloud aggregation + broadcast, as today.

    The name reflects the full paper pipeline this strategy closes:
    edges aggregate their devices with inverse-probability weights
    (Eq. (5), unchanged in :meth:`repro.hfl.edge.Edge.aggregate`) and
    the cloud weights each edge by its member count (Eq. (6)).
    """

    name = "ipw"
    compatible_topologies = ("hierarchical",)

    def apply(
        self,
        plan: SyncPlan,
        uploads: Sequence[np.ndarray],
        counts: np.ndarray,
        cloud,
        edges: Sequence,
    ) -> None:
        # Delegate to the pre-topology code path verbatim: one Eq. (6)
        # weighted sum into cloud.model, then a broadcast — the
        # bit-identity anchor for the whole topology layer.
        cloud.aggregate_models(list(uploads), counts)
        cloud.broadcast(edges)
