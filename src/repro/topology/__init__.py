"""repro.topology — pluggable topologies & aggregation strategies.

The paper's single cloud→edge→device tree with Eq. (6) aggregation is
one point in a family of communication scenarios.  This subsystem
factors the sync step into two config-selectable abstractions
(DESIGN.md §12):

- :class:`Topology` — who talks to whom at a sync step
  (``hierarchical`` tree, ``clustered`` with an inter-cluster mixing
  matrix, cloudless ``gossip`` with seeded neighbor exchange);
- :class:`AggregationStrategy` — how exchanged models combine
  (``ipw`` cloud aggregation as today, ``cluster_mix`` with a
  configurable mixing weight, ``gossip_avg`` uniform neighborhood
  averaging over flat parameter buffers).

The default pair (``hierarchical`` + ``ipw``) is bit-identical to the
pre-topology trainer on every executor backend; the golden fingerprints
in ``tests/golden/fingerprints.json``, recorded while that trainer was
still runnable, pin it.  All alternative modes
share the samplers, fault model, checkpointing and obs stack unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.topology.base import (
    AGGREGATION_STRATEGIES,
    DEFAULT_STRATEGY,
    TOPOLOGY_KINDS,
    AggregationStrategy,
    SyncPlan,
    Topology,
    check_sync_inputs,
)
from repro.topology.clustered import (
    ClusteredTopology,
    ClusterMixAggregation,
    default_num_clusters,
)
from repro.topology.gossip import GossipAveraging, GossipTopology
from repro.topology.hierarchical import HierarchicalTopology, IPWAggregation

__all__ = [
    "AGGREGATION_STRATEGIES",
    "DEFAULT_STRATEGY",
    "TOPOLOGY_KINDS",
    "AggregationStrategy",
    "ClusterMixAggregation",
    "ClusteredTopology",
    "GossipAveraging",
    "GossipTopology",
    "HierarchicalTopology",
    "IPWAggregation",
    "SyncPlan",
    "Topology",
    "check_sync_inputs",
    "default_num_clusters",
    "default_strategy_name",
    "make_aggregation",
    "make_topology",
    "validate_pair",
]

_STRATEGY_COMPAT = {
    "ipw": IPWAggregation.compatible_topologies,
    "cluster_mix": ClusterMixAggregation.compatible_topologies,
    "gossip_avg": GossipAveraging.compatible_topologies,
}


def default_strategy_name(topology: str) -> str:
    """The aggregation strategy a topology uses when none is requested."""
    if topology not in DEFAULT_STRATEGY:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {TOPOLOGY_KINDS}"
        )
    return DEFAULT_STRATEGY[topology]


def validate_pair(topology: str, aggregation: Optional[str]) -> str:
    """Resolve and validate a (topology, strategy) selection.

    Returns the effective strategy name (the topology default when
    ``aggregation`` is ``None``); raises ``ValueError`` on unknown names
    or an incompatible combination.
    """
    if topology not in TOPOLOGY_KINDS:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {TOPOLOGY_KINDS}"
        )
    if aggregation is None:
        return DEFAULT_STRATEGY[topology]
    if aggregation not in AGGREGATION_STRATEGIES:
        raise ValueError(
            f"unknown aggregation strategy {aggregation!r}; choose from "
            f"{AGGREGATION_STRATEGIES}"
        )
    if topology not in _STRATEGY_COMPAT[aggregation]:
        raise ValueError(
            f"aggregation strategy {aggregation!r} does not support the "
            f"{topology!r} topology (supported: "
            f"{', '.join(_STRATEGY_COMPAT[aggregation])})"
        )
    return aggregation


def make_topology(
    name: str,
    *,
    num_clusters: Optional[int] = None,
    gossip_degree: int = 2,
) -> Topology:
    """Instantiate the named topology with its parameters."""
    if name == "hierarchical":
        return HierarchicalTopology()
    if name == "clustered":
        return ClusteredTopology(num_clusters=num_clusters)
    if name == "gossip":
        return GossipTopology(degree=gossip_degree)
    raise ValueError(
        f"unknown topology {name!r}; choose from {TOPOLOGY_KINDS}"
    )


def make_aggregation(
    name: Optional[str],
    topology: Topology,
    *,
    mixing_weight: float = 0.25,
) -> AggregationStrategy:
    """Instantiate (and bind) the strategy for ``topology``.

    ``None`` selects the topology's default strategy; explicit names are
    validated for compatibility by :meth:`AggregationStrategy.bind`.
    """
    effective = validate_pair(topology.name, name)
    if effective == "ipw":
        strategy: AggregationStrategy = IPWAggregation()
    elif effective == "cluster_mix":
        strategy = ClusterMixAggregation(mixing_weight=mixing_weight)
    else:
        strategy = GossipAveraging()
    strategy.bind(topology)
    return strategy
