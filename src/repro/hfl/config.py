"""HFL training configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.validation import check_fraction, check_membership, check_positive

#: Aggregation variants for Eq. (5) — see :mod:`repro.hfl.edge`.
AGGREGATION_MODES = ("delta", "model", "normalized", "fedavg")

#: Evaluation schedules (see ``HFLConfig.eval_cadence``).
EVAL_CADENCES = ("fixed", "adaptive")


@dataclass
class HFLConfig:
    """Parameters of one HFL run (defaults follow §IV-A.2).

    Attributes
    ----------
    learning_rate:
        Device learning rate γ (0.002 for MNIST/FMNIST, 0.02 for
        CIFAR10 in the paper).
    local_epochs:
        Local updating steps I per sampled device per time step (10).
    batch_size:
        Minibatch size of each local SGD step (ξ in Eq. (4)).
    sync_interval:
        Edge-to-cloud communication interval T_g (5 for MNIST/FMNIST,
        10 for CIFAR10).
    participation_fraction:
        Expected fraction of all devices training per step; each edge's
        channel capacity is ``K_n = fraction * |M| / |N|`` (the paper's
        "50% of the devices participating ⇒ average K_n = 5 with 10
        edges and 100 devices").  Ignored when ``capacity_per_edge`` is
        given explicitly.
    capacity_per_edge:
        Optional explicit K_n vector of length num_edges.
    aggregation:
        How Eq. (5) is realized (see :meth:`repro.hfl.edge.Edge.aggregate`):

        - ``"delta"`` (default): edges aggregate inverse-probability-
          weighted model *updates* on top of the previous edge model.
          This is the unbiased *gradient* update of Lemma 1 and is the
          form the Theorem-1 proof actually manipulates (Eq. (19));
          aggregating raw models would rescale the whole parameter
          vector by the realized weight sum each step, the
          "explosive increase / gradient vanishing" failure §III-B.2
          warns about.
        - ``"model"``: the literal Eq. (5) (raw-model IPW sum), kept for
          the faithfulness ablation.
        - ``"normalized"``: IPW model sum divided by the realized weight
          sum (the common practical fix; biased but low variance).
        - ``"fedavg"``: participants' updates averaged with equal
          weights (no inverse-probability correction).  This is how
          deployed FL systems aggregate and it makes the sampling
          strategy *bias* the edge optimization direction toward the
          sampled devices — the regime in which biased-selection
          baselines like [14]/[39] (and the paper's reported gains)
          operate.  The evaluation presets default to it; the IPW modes
          remain for the theory-faithful pipeline and ablations.
    eval_interval:
        Evaluate the global model every this many steps (``None`` ⇒
        every sync_interval, i.e. at each cloud aggregation).
    seed:
        Master seed for all engine randomness.
    executor:
        Which :mod:`repro.runtime` backend runs the device local
        updates — ``"serial"`` (default, in-process reference path) or
        ``"process"``.  Both backends are bit-identical for a fixed
        seed; the process pool trades setup/serialization overhead for
        multi-core wall-clock.
    num_workers:
        Worker count for the process executor (``None`` ⇒ CPU count);
        ignored by the serial backend.
    fault_profile:
        Fault injection for the run — a
        :class:`repro.faults.FaultProfile`, a spec string accepted by
        :func:`repro.faults.resolve_fault_profile` (e.g. ``"severe"`` or
        ``"dropout=0.2,corruption=0.05"``), or ``None`` / an all-zero
        profile for the perfect world.  Faults are drawn from named
        ``(step, edge, device)`` seed streams, so runs stay
        bit-identical across executor backends under any profile.
    churn_profile:
        Open-population dynamics for the run — a
        :class:`repro.churn.ChurnProfile`, a spec string accepted by
        :func:`repro.churn.resolve_churn_profile` (e.g. ``"moderate"``
        or ``"arrival=0.1,departure=0.05"``), or ``None`` / an inactive
        profile for the paper's closed world.  Arrivals and departures
        are drawn from named seed streams of a ``"churn"`` child
        factory, so runs stay bit-identical across executor backends
        under any profile.
    max_staleness:
        Bounded-staleness window for late uploads: a sampled upload
        that misses the straggler deadline is parked and admitted into
        a later aggregate up to this many steps after its round, with
        an age-discounted weight (``staleness_discount ** age``).  The
        default 0 keeps today's behavior — stragglers are dropped — and
        is required for bit-identity with the pre-churn trainer.
        Nonzero values only matter under a fault profile with a
        straggler deadline (otherwise no upload is ever late).
    staleness_discount:
        Per-step age discount applied to an admitted late upload's
        aggregation weight, in (0, 1].
    checkpoint_every:
        Write a resumable :class:`repro.faults.TrainerCheckpoint` every
        this many completed steps (``None`` disables checkpointing).
    checkpoint_path:
        Where the checkpoint file is written (required when
        ``checkpoint_every`` is set; overwritten in place, atomically).
    topology:
        Who talks to whom at each sync step (see :mod:`repro.topology`):
        ``"hierarchical"`` (default — the paper's cloud→edge tree),
        ``"clustered"`` (edge clusters with inter-cluster model
        mixing), or ``"gossip"`` (cloudless seeded neighbor exchange).
    aggregation_strategy:
        How the exchanged models combine at a sync step — ``"ipw"``
        (cloud member-count weighting + broadcast, hierarchical only),
        ``"cluster_mix"`` (per-cluster weighted aggregation then
        λ-damped neighbor mixing), or ``"gossip_avg"`` (uniform
        neighborhood averaging).  ``None`` (default) selects the
        topology's canonical strategy.  Distinct from ``aggregation``,
        which picks the *within-edge* Eq. (5) device-weighting mode.
    num_clusters:
        Cluster count for the clustered topology (``None`` ⇒ ⌈√E⌉,
        capped at the edge count); ignored by the other topologies.
    cluster_mixing_weight:
        λ ∈ [0, 1] of ``cluster_mix``: 0 keeps clusters independent,
        1 replaces every cluster model with its neighbors' average.
    gossip_degree:
        Peers each edge draws per gossip sync step (clipped to E − 1).
    """

    learning_rate: float = 0.01
    local_epochs: int = 10
    batch_size: int = 16
    sync_interval: int = 5
    participation_fraction: float = 0.5
    capacity_per_edge: Optional[np.ndarray] = None
    aggregation: str = "delta"
    eval_interval: Optional[int] = None
    # Evaluation cadence: "fixed" evaluates every effective_eval_interval
    # steps; "adaptive" starts there and doubles the gap whenever the
    # accuracy moved less than eval_accuracy_delta since the previous
    # evaluation (capped at effective_eval_max_interval), resetting to
    # the base interval as soon as accuracy moves again.  Evaluation is
    # a pure observer, so the cadence never perturbs the training
    # trajectory — only which steps appear in the history.
    eval_cadence: str = "fixed"
    eval_max_interval: Optional[int] = None
    eval_accuracy_delta: float = 0.005
    seed: int = 0
    executor: str = "serial"
    num_workers: Optional[int] = None
    fault_profile: Optional[object] = None
    churn_profile: Optional[object] = None
    max_staleness: int = 0
    staleness_discount: float = 0.5
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    topology: str = "hierarchical"
    aggregation_strategy: Optional[str] = None
    num_clusters: Optional[int] = None
    cluster_mixing_weight: float = 0.25
    gossip_degree: int = 2

    def __post_init__(self) -> None:
        check_positive("seed", self.seed, strict=False)
        check_positive("learning_rate", self.learning_rate)
        check_positive("local_epochs", self.local_epochs)
        check_positive("batch_size", self.batch_size)
        check_positive("sync_interval", self.sync_interval)
        check_fraction("participation_fraction", self.participation_fraction)
        check_membership("aggregation", self.aggregation, AGGREGATION_MODES)
        # Deferred import: repro.runtime sits above the device layer in
        # the dependency order, so the kinds tuple is pulled at
        # construction time rather than module-import time.
        from repro.runtime.base import EXECUTOR_KINDS

        check_membership("executor", self.executor, EXECUTOR_KINDS)
        if self.num_workers is not None:
            check_positive("num_workers", self.num_workers)
        # Same deferred-import rationale: repro.faults sits above this
        # module (it imports repro.hfl.latency).
        from repro.faults.profile import resolve_fault_profile

        self.fault_profile = resolve_fault_profile(self.fault_profile)
        # Churn rides the same deferred-import pattern for consistency.
        from repro.churn.profile import resolve_churn_profile

        self.churn_profile = resolve_churn_profile(self.churn_profile)
        if self.max_staleness < 0:
            raise ValueError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )
        if not 0.0 < self.staleness_discount <= 1.0:
            raise ValueError(
                f"staleness_discount must be in (0, 1], got "
                f"{self.staleness_discount}"
            )
        # Same deferred-import rationale once more: repro.topology is
        # imported by the trainer, which sits above this module.
        from repro.topology import validate_pair

        validate_pair(self.topology, self.aggregation_strategy)
        if self.num_clusters is not None:
            check_positive("num_clusters", self.num_clusters)
        check_fraction("cluster_mixing_weight", self.cluster_mixing_weight)
        check_positive("gossip_degree", self.gossip_degree)
        if self.checkpoint_every is not None:
            check_positive("checkpoint_every", self.checkpoint_every)
            if self.checkpoint_path is None:
                raise ValueError(
                    "checkpoint_every requires checkpoint_path to be set"
                )
        if self.eval_interval is not None:
            check_positive("eval_interval", self.eval_interval)
        check_membership("eval_cadence", self.eval_cadence, EVAL_CADENCES)
        if self.eval_max_interval is not None:
            check_positive("eval_max_interval", self.eval_max_interval)
            if self.eval_max_interval < self.effective_eval_interval:
                raise ValueError(
                    f"eval_max_interval={self.eval_max_interval} is below the "
                    f"base interval {self.effective_eval_interval}"
                )
        check_positive("eval_accuracy_delta", self.eval_accuracy_delta)
        if self.capacity_per_edge is not None:
            self.capacity_per_edge = np.asarray(self.capacity_per_edge, dtype=float)
            if np.any(self.capacity_per_edge <= 0):
                raise ValueError("capacity_per_edge entries must be positive")

    def capacities(self, num_edges: int, num_devices: int) -> np.ndarray:
        """Resolve the per-edge channel capacities K_n (Eq. (3))."""
        check_positive("num_edges", num_edges)
        check_positive("num_devices", num_devices)
        if self.capacity_per_edge is not None:
            if self.capacity_per_edge.shape != (num_edges,):
                raise ValueError(
                    f"capacity_per_edge must have shape ({num_edges},), got "
                    f"{self.capacity_per_edge.shape}"
                )
            return self.capacity_per_edge
        per_edge = self.participation_fraction * num_devices / num_edges
        return np.full(num_edges, per_edge)

    @property
    def effective_eval_interval(self) -> int:
        return self.eval_interval if self.eval_interval is not None else self.sync_interval

    @property
    def effective_eval_max_interval(self) -> int:
        """Adaptive-cadence ceiling (default: 8 × the base interval)."""
        if self.eval_max_interval is not None:
            return self.eval_max_interval
        return 8 * self.effective_eval_interval
