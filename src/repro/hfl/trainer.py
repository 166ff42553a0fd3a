"""The HFL training loop — Algorithm 1 of the paper.

Per time step ``t``:

1. every edge ``n`` asks the sampler for its strategy ``Q^t_n`` over the
   devices currently inside it (line 3) and draws the participation
   indicators — the *plan* phase, sequential in the engine;
2. sampled devices run their I local SGD steps from the downloaded edge
   model (lines 5–9) — the *execute* phase, fanned out through the
   pluggable :mod:`repro.runtime` executor (edges are independent within
   a step and devices within an edge, so both levels parallelize);
3. devices feed their gradient experiences back to the sampler (line
   10) and the edge aggregates with inverse-probability weights (line
   11) — the *finish* phase, again sequential in member order;
4. every ``T_g`` steps the cloud aggregates edge models into the global
   model and broadcasts it back (lines 12–13), and the sampler is
   notified (MACH refreshes its UCB estimates on this clock).

Step-synchronous semantics: all strategies of step ``t`` are computed
from the sampler state at the *beginning* of the step, and participation
feedback is applied at the end of the step in (edge, member) order.
Edges in a real deployment act concurrently and cannot observe each
other's same-step feedback, so this is both the faithful reading of
Algorithm 1 and what makes edge-level parallelism deterministic: for a
fixed seed every executor backend produces bit-identical histories.

Robustness (see :mod:`repro.faults` and DESIGN.md §8): when the config
carries an active fault profile, the finish phase screens every sampled
upload through the fault model — departures, stragglers and corrupted
payloads are dropped, the Eq. (5) weights are renormalized over the
survivors, a round that loses everyone keeps the edge's previous model,
and failed devices feed :meth:`~repro.sampling.base.Sampler
.observe_failure` so MACH's UCB learns reliability.  Edge→cloud sync
failures are retried with bounded exponential backoff, falling back to
the edge's last successfully synced model.  All fault draws come from
named ``(step, edge)`` seed streams, so the executor-backend
bit-identity contract holds under any profile, and
checkpoint/resume (:class:`repro.faults.TrainerCheckpoint`) replays a
killed run exactly.

Open population (see :mod:`repro.churn` and DESIGN.md §13): an active
churn profile turns the fixed device population into a seeded
arrival/departure stream — departed devices vanish from the samplable
member sets, arrivals are warm-started in the sampler.  With
``max_staleness > 0`` a straggler upload is *parked* instead of
dropped and admitted into a later aggregate with an age-discounted
weight (``staleness_discount ** age``), bounded by the staleness
window.  Both features default off, and when off the trainer follows
exactly the pre-churn code paths and consumes exactly the same seed
streams — bit-identical histories, on every executor backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.churn import ChurnProcess, make_churn_process
from repro.data.dataset import Dataset
from repro.faults import (
    CheckpointMismatchError,
    FaultModel,
    TrainerCheckpoint,
    make_fault_model,
)
from repro.hfl.cloud import Cloud
from repro.hfl.config import HFLConfig
from repro.hfl.device import Device, LocalUpdateResult
from repro.hfl.edge import Edge
from repro.hfl.metrics import TrainingHistory, evaluate
from repro.hfl.telemetry import TelemetryRecorder
from repro.mobility.trace import MobilityTrace
from repro.nn.model import Model
from repro.runtime import (
    EdgeRoundPlan,
    Executor,
    LocalUpdateItem,
    WorkerContext,
    make_executor,
)
from repro.sampling.base import DeviceProfile, Sampler
from repro.topology import make_aggregation, make_topology
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import check_finite, check_state_array


@dataclass
class TrainingResult:
    """Everything a benchmark needs from one finished HFL run."""

    sampler_name: str
    history: TrainingHistory
    steps_run: int
    participation_counts: np.ndarray
    mean_participants_per_step: float
    reached_target_at: Optional[int] = None
    #: Per-evaluation probability spread diagnostics (max/min q per edge).
    diagnostics: Dict[str, float] = field(default_factory=dict)
    #: Total simulated edge→cloud retry backoff accumulated by the run's
    #: latency accounting (0.0 for a fault-free run).
    simulated_backoff_seconds: float = 0.0
    #: Parked straggler uploads admitted into a later aggregate.
    late_admits: int = 0
    #: Parked uploads discarded because the device de-enrolled.
    late_drops: int = 0
    #: Churn arrivals / departures over the run (0 for a closed world).
    devices_joined: int = 0
    devices_left: int = 0
    #: Flat copy of the final cloud model — the bit-identity witness the
    #: service tests compare against the synchronous trainer.
    final_cloud_model: Optional[np.ndarray] = None

    def time_to_accuracy(self, target: float) -> Optional[int]:
        return self.history.time_to_accuracy(target)


@dataclass
class StepOutcome:
    """One completed time step, as yielded by :meth:`HFLTrainer.steps`.

    ``accuracy`` / ``loss`` are ``None`` unless this step hit an
    evaluation point; ``participants`` counts this step's admitted
    uploads (including late stale admits); ``stop`` marks the step that
    ended an early-stopping run.
    """

    step: int
    steps_run: int
    participants: int
    synced: bool
    evaluated: bool
    accuracy: Optional[float] = None
    loss: Optional[float] = None
    reached_target: bool = False
    stop: bool = False
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "step": self.step,
            "steps_run": self.steps_run,
            "participants": self.participants,
            "synced": self.synced,
            "evaluated": self.evaluated,
            "accuracy": self.accuracy,
            "loss": self.loss,
            "reached_target": self.reached_target,
            "stop": self.stop,
            "seconds": self.seconds,
        }


@dataclass
class _PendingRound:
    """One edge's planned round, awaiting its local-update results."""

    edge: Edge
    members: np.ndarray
    probabilities: np.ndarray
    #: The devices whose indicator was 1, in member order, and their q.
    sampled: np.ndarray
    sampled_q: np.ndarray
    plan: EdgeRoundPlan


@dataclass
class _StaleUpload:
    """A straggler upload parked in the bounded-staleness buffer.

    The upload is frozen as the *delta* against its round's start model
    with its round's IPW weight, so admission is a single discounted
    axpy onto whatever the edge model has become by then (the same
    shape as the delta-mode aggregation it missed).
    """

    device: int
    edge: int
    #: The round the upload was computed in.
    born_step: int
    #: The step whose finish phase admits (or drops) the upload.
    admit_step: int
    #: The Eq. (5) weight the upload would have carried in its round.
    weight: float
    #: ``final_model - round_start_model`` of the local update.
    delta: np.ndarray
    #: Deferred sampler feedback, applied only on admission.
    grad_sq_norms: List[float]
    mean_loss: float


class HFLTrainer:
    """Drives Algorithm 1 over a mobility trace with a pluggable sampler.

    ``executor`` selects the :mod:`repro.runtime` backend the local
    updates run on: ``None`` falls back to ``config.executor`` (default
    ``"serial"``, the in-process reference path), a string is resolved
    via :func:`repro.runtime.make_executor` with ``config.num_workers``,
    and a ready :class:`~repro.runtime.Executor` instance is used as-is
    (the caller keeps ownership and must close it).  Executors the
    trainer builds itself are released by :meth:`close`.

    ``fault_model`` injects failures: ``None`` derives a
    :class:`~repro.faults.SeededFaultModel` from ``config.fault_profile``
    (no model when the profile is absent or inactive); a ready
    :class:`~repro.faults.FaultModel` instance is used as-is (tests
    inject deterministic stubs this way).

    ``churn`` opens the population: ``None`` derives a
    :class:`~repro.churn.ChurnProcess` from ``config.churn_profile``
    (no process when the profile is absent or inactive, which keeps
    the closed-world fast path bit-identical to the pre-churn
    trainer); a ready process instance is used as-is (tests inject
    scripted populations this way).  See DESIGN.md §13.

    ``obs`` attaches a :class:`repro.obs.Observability` handle (event
    log, span tracer, metrics, audit trail, profiler, resources, health
    — any subset); without one the trainer holds an empty handle.
    ``telemetry`` joins the handle's subscribers, and the trainer
    reports each engine event once, to the handle.  Every sink is a
    pure observer: nothing it records feeds an RNG stream, model/sampler
    state or a ``state_dict`` (apart from the telemetry recorder's own
    checkpointed stream), so an obs-enabled run is bit-identical to an
    obs-disabled one on every executor backend and under kill/resume.
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Model],
        device_datasets: Sequence[Dataset],
        trace: MobilityTrace,
        sampler: Sampler,
        config: HFLConfig,
        test_dataset: Dataset,
        telemetry: Optional["TelemetryRecorder"] = None,
        executor: Optional[Union[str, Executor]] = None,
        fault_model: Optional[FaultModel] = None,
        churn: Optional[ChurnProcess] = None,
        obs=None,
    ) -> None:
        if len(device_datasets) != trace.num_devices:
            raise ValueError(
                f"trace covers {trace.num_devices} devices but "
                f"{len(device_datasets)} datasets were given"
            )
        if len(test_dataset) == 0:
            raise ValueError("test dataset is empty")
        self.config = config
        self.trace = trace
        self.sampler = sampler
        self.test_dataset = test_dataset
        self.telemetry = telemetry

        self._seeds = SeedSequenceFactory(config.seed)
        # One shared scratch network; all model state moves as flat vectors.
        self.model: Model = model_factory(self._seeds.generator("model-init"))
        dim = self.model.num_parameters

        self.devices: List[Device] = [
            Device(m, ds) for m, ds in enumerate(device_datasets)
        ]
        capacities = config.capacities(trace.num_edges, trace.num_devices)
        self.edges: List[Edge] = [
            Edge(n, capacities[n], dim) for n in range(trace.num_edges)
        ]
        self.cloud = Cloud(dim)

        # Broadcast the common initial model w^0 to cloud and edges.
        initial = self.model.flat_copy()
        self.cloud.model = initial.copy()
        for edge in self.edges:
            edge.set_model(initial)
        #: Per-edge fallback for sync-step upload failures: the last
        #: model each edge successfully contributed to a sync.
        self._last_synced: List[np.ndarray] = [
            initial.copy() for _ in self.edges
        ]

        # Who talks to whom at sync steps, and how the exchanged models
        # combine (see repro.topology).  The default pair (hierarchical
        # + ipw) reproduces the pre-topology trainer bit for bit.
        self.topology = make_topology(
            config.topology,
            num_clusters=config.num_clusters,
            gossip_degree=config.gossip_degree,
        )
        self.topology.bind(trace.num_edges, self._seeds)
        self.aggregation_strategy = make_aggregation(
            config.aggregation_strategy,
            self.topology,
            mixing_weight=config.cluster_mixing_weight,
        )

        profiles = [
            DeviceProfile(
                device_id=m,
                num_samples=len(ds),
                class_distribution=ds.class_distribution(),
            )
            for m, ds in enumerate(device_datasets)
        ]
        self.sampler.setup(profiles, trace.num_edges)

        if fault_model is None:
            fault_model = make_fault_model(config.fault_profile)
        self.fault_model: Optional[FaultModel] = fault_model
        if self.fault_model is not None:
            self.fault_model.bind(trace.num_devices, self._seeds)

        # Open-population churn and the bounded-staleness buffer.  Both
        # default off: with no churn process and max_staleness == 0 the
        # engine follows exactly the pre-churn code paths (the
        # reference-twin bit-identity contract, tested in tests/churn).
        if churn is None:
            churn = make_churn_process(config.churn_profile)
        self.churn: Optional[ChurnProcess] = churn
        if self.churn is not None:
            self.churn.bind(trace.num_devices, self._seeds)
            self.churn.reset()
        self._max_staleness = config.max_staleness
        self._staleness_discount = config.staleness_discount
        self._stale_buffer: List[_StaleUpload] = []

        if executor is None:
            executor = config.executor
        if isinstance(executor, str):
            executor = make_executor(executor, num_workers=config.num_workers)
            self._owns_executor = True
        else:
            self._owns_executor = False
        self.executor: Executor = executor
        self.executor.bind(
            WorkerContext(self.model, self.devices, config.seed)
        )

        # Observability: one handle receives every engine record.
        # Imported lazily: repro.obs builds on repro.hfl's telemetry
        # records, so a module-level import would cycle.
        from repro.obs import Observability

        self.obs = obs if obs is not None else Observability()
        self.obs.bind(
            telemetry,
            self.executor,
            self.topology.name,
            self.aggregation_strategy.name,
            model_bytes=self.cloud.model.nbytes,
        )

        # Run-progress state, mutated by run() and snapshot by checkpoints.
        self._history = TrainingHistory()
        self._participation_counts = np.zeros(trace.num_devices, dtype=int)
        self._total_participants = 0
        self._steps_run = 0
        self._reached_at: Optional[int] = None
        # Robustness accounting (checkpointed so resume replays it):
        # simulated sync backoff, staleness-buffer outcomes and churn.
        self._sim_backoff_seconds = 0.0
        self._late_admits = 0
        self._late_drops = 0
        self._devices_joined = 0
        self._devices_left = 0
        # Adaptive-evaluation cursor (only consulted when
        # config.eval_cadence == "adaptive"; checkpointed for resume).
        self._eval_interval_now = config.effective_eval_interval
        self._next_eval = self._eval_interval_now
        self._last_eval_accuracy: Optional[float] = None

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the executor's workers if the trainer created them.

        Also unbinds the observability handle, so no process-global
        instrumentation outlives the run.
        """
        self.obs.unbind()
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "HFLTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _plan_round(self, t: int, edge: Edge) -> Optional[_PendingRound]:
        """Plan phase for one edge: strategy, oracle probes, indicators."""
        members = self.trace.devices_at(t, edge.edge_id)
        if self.churn is not None:
            # Open population: only enrolled devices are samplable.  The
            # trace stays the closed-world ground truth of *where*
            # devices are; churn masks *who* currently exists.
            members = members[self.churn.active_mask[members]]
        if members.size == 0:
            return None
        probabilities = self.sampler.probabilities(
            t, edge.edge_id, members, edge.capacity
        )
        probabilities = np.clip(np.asarray(probabilities, dtype=float), 0.0, 1.0)

        if self.sampler.requires_oracle:
            # MACH-P assumption: the true training experience of every
            # member is observable this step, participating or not.
            for m in members:
                norm = self.devices[m].probe_grad_sq_norm(
                    edge.model,
                    self.model,
                    self.config.batch_size,
                    rng=self._seeds.round_generator(t, edge.edge_id, f"probe/{m}"),
                )
                self.sampler.observe_oracle(t, int(m), norm)

        indicators = Edge.draw_participation(
            probabilities,
            rng=self._seeds.round_generator(t, edge.edge_id, "participation"),
        )
        # Reported after the draw, so observing the round never touches
        # its random stream.
        self.obs.sampling(
            t, edge.edge_id, members, probabilities, indicators, self.sampler
        )
        # Everything after the draw touches the sampled devices only.
        sampled = members[indicators]
        sampled_q = probabilities[indicators]
        items = tuple(
            LocalUpdateItem(
                step=t,
                edge=edge.edge_id,
                device_id=m,
                local_epochs=self.config.local_epochs,
                learning_rate=self.config.learning_rate,
                batch_size=self.config.batch_size,
            )
            for m in sampled.tolist()
        )
        plan = EdgeRoundPlan(
            step=t, edge=edge.edge_id, start_model=edge.model, items=items
        )
        return _PendingRound(
            edge, members, probabilities, sampled, sampled_q, plan
        )

    def _screen_uploads(
        self,
        t: int,
        edge_id: int,
        results: Dict[int, LocalUpdateResult],
    ) -> "tuple[Dict[int, LocalUpdateResult], Dict[int, str], Dict[int, LocalUpdateResult]]":
        """Pass the round's sampled uploads through the fault model.

        Returns the surviving results, the failures (device → fault
        kind) and the *parked* uploads: with ``max_staleness > 0`` a
        straggler upload is no longer dropped but handed back for the
        bounded-staleness buffer (it missed this round's deadline, so
        it joins a later aggregate with an age-discounted weight).
        Mobility coupling: a device inside the edge at the plan phase
        (step ``t``) but outside it by the finish phase (step ``t + 1``
        of the trace) may depart mid-round and lose its upload.
        Surviving and parked payloads are additionally screened for
        non-finite values — the receiver-side integrity check that keeps
        a corrupted upload from ever reaching aggregation.
        """
        order = sorted(results)
        devices = np.array(order)
        # One gather against the next step's raw assignment row — no
        # per-(edge, step) Python set to rebuild.
        departed = self.trace.assignment_row(t + 1)[devices] != edge_id
        faults = self.fault_model.upload_faults(
            t, edge_id, devices, departed, len(order), self.cloud.model.size
        )
        park_late = self._max_staleness > 0
        # Late, not lost: a parked straggler's payload is intact (it
        # never reaches the corruption draw), it just missed the
        # deadline.
        parked = {
            m: results[m]
            for m, kind in faults.lost.items()
            if kind == "straggler" and park_late
        }
        failures = {
            m: kind for m, kind in faults.lost.items() if m not in parked
        }
        surviving = {m: results[m] for m in order if m not in faults.lost}
        for m, (positions, values) in faults.bursts.items():
            corrupted = np.array(surviving[m].final_model, dtype=float)
            corrupted[positions] = values
            surviving[m] = replace(surviving[m], final_model=corrupted)
        screened = [*surviving.items(), *parked.items()]
        if screened:
            finite = np.isfinite(
                np.stack([result.final_model for _, result in screened])
            ).all(axis=1)
            for (m, _), ok in zip(screened, finite.tolist()):
                if not ok:
                    failures[m] = "corruption"
                    surviving.pop(m, None)
                    parked.pop(m, None)
        return surviving, failures, parked

    def _finish_round(
        self,
        t: int,
        pending: _PendingRound,
        results: Dict[int, LocalUpdateResult],
    ) -> int:
        """Finish phase for one edge round; returns the survivor count."""
        failures: Dict[int, str] = {}
        parked: Dict[int, LocalUpdateResult] = {}
        num_sampled = len(results)
        if self.fault_model is not None and results:
            results, failures, parked = self._screen_uploads(
                t, pending.edge.edge_id, results
            )
        if parked:
            self._park_uploads(t, pending, parked, num_sampled)

        for m in pending.sampled.tolist():
            result = results.get(m)
            if result is not None:
                self.sampler.observe_participation(
                    t, m, result.grad_sq_norms, result.mean_loss
                )
                self._participation_counts[m] += 1
            elif m in failures:
                # Sampled but failed: reliability feedback, no experience.
                self.sampler.observe_failure(t, m)
            # Parked devices get neither: their feedback is deferred to
            # the admission (or drop) of their buffered upload.

        pending.edge.aggregate(
            pending.sampled,
            pending.sampled_q,
            results,
            len(pending.members),
            mode=self.config.aggregation,
            # A fault (or a parked straggler) changed the realized
            # participation away from the strategy's q: average over
            # the survivors instead of trusting the now-miscalibrated
            # IPW weights.
            renormalize=bool(failures) or bool(parked),
        )
        self.obs.round(
            t,
            pending.edge.edge_id,
            pending.members,
            pending.probabilities,
            pending.sampled,
            results,
            failures,
            num_sampled,
            num_parked=len(parked),
        )
        return len(results)

    def _park_uploads(
        self,
        t: int,
        pending: _PendingRound,
        parked: Dict[int, LocalUpdateResult],
        num_sampled: int,
    ) -> None:
        """Move late uploads into the bounded-staleness buffer.

        Each parked upload is frozen as its round's delta and Eq. (5)
        weight and assigned an admission step drawn from a named
        ``(step, edge, device)`` seed stream — state-independent
        streams, so the draw is bit-identical across executors and
        under kill/resume.  Admission happens in the finish phase of
        ``admit_step`` (see :meth:`_admit_stale`).
        """
        q_of = dict(zip(pending.sampled.tolist(), pending.sampled_q.tolist()))
        for m in sorted(parked):
            result = parked[m]
            delay = int(
                self._seeds.round_generator(
                    t, pending.edge.edge_id, f"staleness/{m}"
                ).integers(1, self._max_staleness + 1)
            )
            if self.config.aggregation == "fedavg":
                weight = 1.0 / max(num_sampled, 1)
            else:
                weight = 1.0 / (len(pending.members) * q_of[m])
            self._stale_buffer.append(
                _StaleUpload(
                    device=m,
                    edge=pending.edge.edge_id,
                    born_step=t,
                    admit_step=t + delay,
                    weight=weight,
                    delta=result.final_model - pending.plan.start_model,
                    grad_sq_norms=list(result.grad_sq_norms),
                    mean_loss=float(result.mean_loss),
                )
            )
        self.obs.stale_buffer(len(self._stale_buffer))

    def _admit_stale(self, t: int) -> None:
        """Admit (or drop) the buffered uploads due at step ``t``.

        An admitted upload lands as a single age-discounted axpy on the
        *current* edge model — ``w_n += discount**age * weight * delta``
        — and only then feeds its deferred experience to the sampler
        (so MACH credits the device at admission time, not at the
        round it missed).  An upload whose device has since left the
        population is dropped with failure feedback instead.  Due
        uploads are processed in ``(born_step, edge, device)`` order so
        overlapping admissions are deterministic.
        """
        if not self._stale_buffer:
            return
        due = [u for u in self._stale_buffer if u.admit_step <= t]
        if not due:
            return
        self._stale_buffer = [u for u in self._stale_buffer if u.admit_step > t]
        due.sort(key=lambda u: (u.born_step, u.edge, u.device))
        for upload in due:
            age = t - upload.born_step
            if self.churn is not None and not bool(
                self.churn.active_mask[upload.device]
            ):
                # The straggler de-enrolled before its upload landed.
                self._late_drops += 1
                self.sampler.observe_failure(t, upload.device)
                self.obs.late_drop(
                    t, upload.edge, upload.device, upload.born_step, age
                )
                continue
            scale = (self._staleness_discount ** age) * upload.weight
            edge = self.edges[upload.edge]
            edge.model = edge.model + scale * upload.delta
            check_finite("stale-admitted edge model", edge.model)
            self.sampler.observe_participation(
                t, upload.device, upload.grad_sq_norms, upload.mean_loss
            )
            self._participation_counts[upload.device] += 1
            self._total_participants += 1
            self._late_admits += 1
            self.obs.late_admit(
                t, upload.edge, upload.device, upload.born_step, age, scale
            )
        self.obs.stale_buffer(len(self._stale_buffer))

    def _apply_churn(self, t: int) -> None:
        """Advance the churn process one step and notify the sampler.

        Departures are announced before arrivals (matching the draw
        order inside :meth:`repro.churn.ChurnProcess.step`), each in
        ascending device order, so sampler warm-starts see a
        deterministic population.
        """
        step = self.churn.step(t)
        for m in step.left:
            self.sampler.on_device_left(t, m)
        for m in step.joined:
            self.sampler.on_device_joined(t, m)
        self._devices_joined += len(step.joined)
        self._devices_left += len(step.left)
        self.obs.churn(t, step.joined, step.left, step.num_active)

    def _train_step(self, t: int) -> int:
        """One full time step; returns the total participant count.

        Each phase (plan / execute / finish) is one
        :meth:`~repro.obs.Observability.phase` scope, timed by one clock
        pair; the executor's worker timings are handed over inside the
        execute scope, so they nest under that phase.
        """
        obs = self.obs
        with obs.phase("plan"):
            if self.churn is not None:
                # Population turnover lands before planning: this step's
                # strategies see the post-churn member sets.
                self._apply_churn(t)
            pending = [self._plan_round(t, edge) for edge in self.edges]
            active = [p for p in pending if p is not None]
        with obs.phase("execute"):
            step_results = self.executor.run_step([p.plan for p in active])
            obs.worker_timings()
        with obs.phase("finish"):
            total = sum(
                self._finish_round(t, p, results)
                for p, results in zip(active, step_results)
            )
            if self._max_staleness > 0:
                # Late uploads whose deadline extension expires this
                # step join the post-round edge models.
                self._admit_stale(t)
        return total

    def _gather_uploads(self, t: int) -> List[np.ndarray]:
        """The per-edge models entering this sync step's exchange.

        Without a fault model every edge contributes its live model
        (by reference — the aggregation strategies read the uploads
        before installing anything).  Under an active fault model each
        edge's upload may fail; the trainer retries with bounded
        exponential backoff (simulated — accounted in telemetry, never
        slept) and falls back to the edge's last successfully synced
        model when the retry budget is exhausted, so one flaky backhaul
        degrades the exchanged model's freshness instead of killing the
        round.  This screening is topology-agnostic: a stale upload
        enters the cloud sum, the cluster mix or the gossip averages
        the same way.
        """
        if self.fault_model is None:
            return [edge.model for edge in self.edges]
        uploads: List[np.ndarray] = []
        for n, edge in enumerate(self.edges):
            outcome = self.fault_model.sync_outcome(t, n)
            # Simulated wall-clock: every retry's exponential backoff
            # counts against the run's latency budget whether or not
            # the upload ultimately succeeded.
            self._sim_backoff_seconds += outcome.backoff_seconds
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
        return uploads

    def _sync_to_cloud(self, t: int) -> None:
        """The sync step (Algorithm 1 lines 12–13, generalized).

        The topology decides who talks to whom (:meth:`Topology
        .sync_plan`) and the aggregation strategy combines the
        exchanged uploads into the new edge models and the global
        model.  Under the default hierarchical + ipw pair this is the
        paper's edge→cloud aggregation and broadcast, bit-identical to
        the pre-topology trainer (see :mod:`repro.topology.reference`).
        """
        counts = self.trace.counts_at(t)
        uploads = self._gather_uploads(t)
        plan = self.topology.sync_plan(t, counts)
        self.aggregation_strategy.apply(
            plan, uploads, counts, self.cloud, self.edges
        )
        # One model up per edge, one installed back down per edge — cloud
        # hop or peer exchange depending on the topology.
        self.obs.sync(len(uploads), len(self.edges))
        self.sampler.on_global_sync(t)

    def _virtual_global(self, t: int) -> np.ndarray:
        """The strategy's evaluation-time global model (for hierarchical
        + ipw: the member-count-weighted average of edge models, which
        equals the cloud model right after a sync step)."""
        counts = self.trace.counts_at(t)
        return self.aggregation_strategy.virtual_global(
            counts, self.edges, self.cloud
        )

    # -- checkpointing -------------------------------------------------------

    def make_checkpoint(self, steps_completed: int) -> TrainerCheckpoint:
        """Snapshot the full mutable run state after ``steps_completed``."""
        return TrainerCheckpoint(
            step=steps_completed,
            master_seed=self.config.seed,
            sampler_name=self.sampler.name,
            topology_name=self.topology.name,
            aggregation_name=self.aggregation_strategy.name,
            topology_state=self.topology.state_dict(),
            edge_models=[edge.model.copy() for edge in self.edges],
            cloud_model=self.cloud.model.copy(),
            last_synced_edge_models=[m.copy() for m in self._last_synced],
            sampler_state=self.sampler.state_dict(),
            history_steps=list(self._history.steps),
            history_accuracy=list(self._history.accuracy),
            history_loss=list(self._history.loss),
            participation_counts=self._participation_counts.copy(),
            total_participants=self._total_participants,
            reached_target_at=self._reached_at,
            telemetry_state=(
                self.telemetry.state_dict() if self.telemetry is not None else None
            ),
            churn_state=(
                self.churn.state_dict() if self.churn is not None else None
            ),
            stale_buffer=[
                {
                    "device": u.device,
                    "edge": u.edge,
                    "born_step": u.born_step,
                    "admit_step": u.admit_step,
                    "weight": u.weight,
                    "delta": u.delta.copy(),
                    "grad_sq_norms": list(u.grad_sq_norms),
                    "mean_loss": u.mean_loss,
                }
                for u in self._stale_buffer
            ],
            robustness_counters={
                "sim_backoff_seconds": self._sim_backoff_seconds,
                "late_admits": self._late_admits,
                "late_drops": self._late_drops,
                "devices_joined": self._devices_joined,
                "devices_left": self._devices_left,
            },
            eval_state=(
                {
                    "next_eval": int(self._next_eval),
                    "interval": int(self._eval_interval_now),
                    "last_accuracy": self._last_eval_accuracy,
                }
                if self.config.eval_cadence == "adaptive"
                else None
            ),
        )

    def restore_checkpoint(
        self, checkpoint: Union[TrainerCheckpoint, str, Path]
    ) -> int:
        """Load a checkpoint into the trainer; returns the resume step.

        The engine's randomness is derived per ``(step, edge, device)``
        from the master seed — there are no stateful RNG cursors — so
        restoring the snapshot and continuing at the returned step
        replays exactly what an uninterrupted run would have produced.
        """
        if not isinstance(checkpoint, TrainerCheckpoint):
            checkpoint = TrainerCheckpoint.load(checkpoint)
        if checkpoint.master_seed != self.config.seed:
            raise CheckpointMismatchError(
                "seed",
                f"checkpoint was written with seed {checkpoint.master_seed}, "
                f"trainer has seed {self.config.seed}"
            )
        if checkpoint.sampler_name != self.sampler.name:
            raise CheckpointMismatchError(
                "sampler",
                f"checkpoint was written with sampler "
                f"{checkpoint.sampler_name!r}, trainer has {self.sampler.name!r}"
            )
        if checkpoint.topology_name != self.topology.name:
            raise CheckpointMismatchError(
                "topology",
                f"checkpoint was written with topology "
                f"{checkpoint.topology_name!r}, trainer has "
                f"{self.topology.name!r}"
            )
        if checkpoint.aggregation_name != self.aggregation_strategy.name:
            raise CheckpointMismatchError(
                "aggregation_strategy",
                f"checkpoint was written with aggregation strategy "
                f"{checkpoint.aggregation_name!r}, trainer has "
                f"{self.aggregation_strategy.name!r}"
            )
        if len(checkpoint.edge_models) != len(self.edges):
            raise CheckpointMismatchError(
                "num_edges",
                f"checkpoint has {len(checkpoint.edge_models)} edges, "
                f"trainer has {len(self.edges)}"
            )
        if (checkpoint.churn_state is not None) != (self.churn is not None):
            raise CheckpointMismatchError(
                "churn_profile",
                "checkpoint churn state does not match the trainer: "
                f"checkpoint {'has' if checkpoint.churn_state else 'lacks'} "
                "a churn process, the trainer "
                f"{'has' if self.churn is not None else 'lacks'} one"
            )
        try:
            self.topology.load_state_dict(checkpoint.topology_state)
        except ValueError as error:
            raise CheckpointMismatchError("topology", str(error)) from error
        if len(checkpoint.last_synced_edge_models) != len(self.edges):
            raise ValueError(
                f"checkpoint has {len(checkpoint.last_synced_edge_models)} "
                f"last-synced edge models, trainer has {len(self.edges)} edges"
            )
        model_shape = self.cloud.model.shape
        if np.shape(checkpoint.cloud_model) != model_shape:
            raise CheckpointMismatchError(
                "model",
                f"checkpoint has a model of shape "
                f"{np.shape(checkpoint.cloud_model)}, trainer has {model_shape}",
            )
        if np.shape(checkpoint.participation_counts) != (self.trace.num_devices,):
            raise CheckpointMismatchError(
                "num_devices",
                f"checkpoint counts {np.size(checkpoint.participation_counts)} "
                f"devices, trainer has {self.trace.num_devices}",
            )
        for edge, model in zip(self.edges, checkpoint.edge_models):
            edge.set_model(check_state_array("edge model", model, float, model_shape))
        self.cloud.model = check_state_array(
            "cloud model", checkpoint.cloud_model, float, model_shape
        )
        self._last_synced = [
            check_state_array("last-synced edge model", m, float, model_shape)
            for m in checkpoint.last_synced_edge_models
        ]
        self.sampler.load_state_dict(checkpoint.sampler_state)
        if self.telemetry is not None and checkpoint.telemetry_state is not None:
            self.telemetry.load_state_dict(checkpoint.telemetry_state)
        self._history = TrainingHistory(
            steps=list(checkpoint.history_steps),
            accuracy=list(checkpoint.history_accuracy),
            loss=list(checkpoint.history_loss),
        )
        self._participation_counts = check_state_array(
            "participation counts",
            checkpoint.participation_counts,
            int,
            (self.trace.num_devices,),
        )
        self._total_participants = checkpoint.total_participants
        self._reached_at = checkpoint.reached_target_at
        if self.churn is not None:
            self.churn.load_state_dict(checkpoint.churn_state)
        self._stale_buffer = [
            _StaleUpload(
                device=int(entry["device"]),
                edge=int(entry["edge"]),
                born_step=int(entry["born_step"]),
                admit_step=int(entry["admit_step"]),
                weight=float(entry["weight"]),
                delta=check_state_array(
                    "stale upload delta", entry["delta"], float, model_shape
                ),
                grad_sq_norms=[float(g) for g in entry["grad_sq_norms"]],
                mean_loss=float(entry["mean_loss"]),
            )
            for entry in checkpoint.stale_buffer
        ]
        counters = checkpoint.robustness_counters or {}
        self._sim_backoff_seconds = float(
            counters.get("sim_backoff_seconds", 0.0)
        )
        self._late_admits = int(counters.get("late_admits", 0))
        self._late_drops = int(counters.get("late_drops", 0))
        self._devices_joined = int(counters.get("devices_joined", 0))
        self._devices_left = int(counters.get("devices_left", 0))
        if checkpoint.eval_state is not None:
            self._next_eval = int(checkpoint.eval_state["next_eval"])
            self._eval_interval_now = int(checkpoint.eval_state["interval"])
            last = checkpoint.eval_state.get("last_accuracy")
            self._last_eval_accuracy = None if last is None else float(last)
        else:
            # Pre-cursor checkpoint (or fixed-cadence run): restart the
            # adaptive schedule at the base interval from the resume
            # step, seeded with the last recorded accuracy.
            self._eval_interval_now = self.config.effective_eval_interval
            self._next_eval = checkpoint.step + self._eval_interval_now
            self._last_eval_accuracy = (
                self._history.accuracy[-1] if self._history.accuracy else None
            )
        self._steps_run = checkpoint.step
        return checkpoint.step

    def _maybe_write_checkpoint(self, steps_completed: int) -> None:
        every = self.config.checkpoint_every
        if every is None or steps_completed % every != 0:
            return
        with self.obs.phase("checkpoint", step=steps_completed):
            self.make_checkpoint(steps_completed).save(self.config.checkpoint_path)
        self.obs.checkpoint(steps_completed, self.config.checkpoint_path)

    # ------------------------------------------------------------------

    def run(
        self,
        num_steps: int,
        target_accuracy: Optional[float] = None,
        stop_at_target: bool = False,
        resume_from: Optional[Union[TrainerCheckpoint, str, Path]] = None,
    ) -> TrainingResult:
        """Execute ``num_steps`` time steps of Algorithm 1.

        When ``stop_at_target`` is set and ``target_accuracy`` is
        reached at an evaluation point, training stops early — the
        time-to-accuracy experiments use this to avoid paying for the
        full horizon on fast samplers.

        ``resume_from`` (a :class:`~repro.faults.TrainerCheckpoint` or a
        path to one) continues a killed run from its snapshot; the
        resumed run's history is bit-identical to an uninterrupted one.

        A thin driver over :meth:`steps`: it drains the generator and
        packages the final state with :meth:`result`.
        """
        for _ in self.steps(
            num_steps,
            target_accuracy=target_accuracy,
            stop_at_target=stop_at_target,
            resume_from=resume_from,
        ):
            pass
        return self.result()

    def result(self) -> TrainingResult:
        """Package the trainer's current run state as a result.

        Callers that drive :meth:`steps` themselves (the coordinator
        service) call this once the generator is exhausted — or after
        closing it early — to get the same object :meth:`run` returns.
        """
        steps_run = self._steps_run
        return TrainingResult(
            sampler_name=self.sampler.name,
            history=self._history,
            steps_run=steps_run,
            participation_counts=self._participation_counts.copy(),
            mean_participants_per_step=(
                self._total_participants / steps_run if steps_run else 0.0
            ),
            reached_target_at=self._reached_at,
            simulated_backoff_seconds=self._sim_backoff_seconds,
            late_admits=self._late_admits,
            late_drops=self._late_drops,
            devices_joined=self._devices_joined,
            devices_left=self._devices_left,
            final_cloud_model=self.cloud.model.copy(),
        )

    def steps(
        self,
        num_steps: int,
        target_accuracy: Optional[float] = None,
        stop_at_target: bool = False,
        resume_from: Optional[Union[TrainerCheckpoint, str, Path]] = None,
    ) -> "Iterator[StepOutcome]":
        """Resumable step generator: yields one :class:`StepOutcome` per
        completed time step.

        The long-running coordinator service drives this instead of
        :meth:`run` so it can checkpoint, pause, stream metrics or stop
        *between* steps while the engine state stays consistent —
        closing the generator between yields leaves the trainer exactly
        at the last completed step (snapshot it with
        :meth:`make_checkpoint`, package it with :meth:`result`).  The
        training semantics are byte-for-byte the synchronous loop's:
        the same state reset, the same per-step phase order, the same
        checkpoint cadence.

        The checkpoint due at step k is written when the consumer
        resumes the generator after step k's yield (or drains it), not
        before the yield: a crash between the consumer's record of step
        k and checkpoint k then replays step k instead of losing its
        record.  A consumer that closes the generator right after a
        yield skips that step's checkpoint and snapshots the trainer
        itself if it needs one (the coordinator does on stop).
        """
        if num_steps <= 0:
            raise ValueError(f"num_steps must be positive, got {num_steps}")
        self._history = TrainingHistory()
        self._participation_counts = np.zeros(self.trace.num_devices, dtype=int)
        self._total_participants = 0
        self._reached_at = None
        self._sim_backoff_seconds = 0.0
        self._late_admits = 0
        self._late_drops = 0
        self._devices_joined = 0
        self._devices_left = 0
        self._stale_buffer = []
        self._eval_interval_now = self.config.effective_eval_interval
        self._next_eval = self._eval_interval_now
        self._last_eval_accuracy = None
        if self.churn is not None:
            # Idempotent: same "initial-active" stream as __init__, so a
            # fresh run always starts from the same population draw.
            self.churn.reset()
        start_step = 0
        if resume_from is not None:
            start_step = self.restore_checkpoint(resume_from)
            if start_step >= num_steps:
                raise ValueError(
                    f"checkpoint is at step {start_step}, nothing left of a "
                    f"{num_steps}-step run"
                )
        history = self._history
        eval_interval = self.config.effective_eval_interval
        adaptive_eval = self.config.eval_cadence == "adaptive"
        eval_max_interval = self.config.effective_eval_max_interval
        eval_delta = self.config.eval_accuracy_delta

        obs = self.obs
        obs.run_start(
            seed=self.config.seed,
            sampler=self.sampler.name,
            executor=self.executor.name,
            topology=self.topology.name,
            aggregation=self.aggregation_strategy.name,
            num_steps=num_steps,
            start_step=start_step,
            sync_interval=self.config.sync_interval,
            eval_interval=eval_interval,
            resumed=resume_from is not None,
            churn=self.churn.describe() if self.churn is not None else None,
            max_staleness=self._max_staleness,
        )

        clock = time.perf_counter
        steps_run = start_step
        self._steps_run = steps_run
        for t in range(start_step, num_steps):
            step_t0 = clock()
            obs.begin_step(t, step_t0)
            stop_early = False
            synced = False
            step_accuracy: Optional[float] = None
            step_loss: Optional[float] = None
            participants_before = self._total_participants
            self._total_participants += self._train_step(t)

            if t % self.config.sync_interval == 0:
                synced = True
                with obs.phase(
                    "sync",
                    topology=self.topology.name,
                    aggregation=self.aggregation_strategy.name,
                ):
                    self._sync_to_cloud(t)

            steps_run = t + 1
            self._steps_run = steps_run
            eval_due = (
                steps_run >= self._next_eval
                if adaptive_eval
                else steps_run % eval_interval == 0
            )
            if eval_due or steps_run == num_steps:
                with obs.phase("eval"):
                    self.model.load_flat(self._virtual_global(t))
                    # One fused pass over the test set yields both
                    # metrics (bit-identical to the separate
                    # accuracy/loss passes).
                    accuracy, loss = evaluate(self.model, self.test_dataset)
                history.record(steps_run, accuracy, loss)
                step_accuracy, step_loss = accuracy, loss
                if adaptive_eval:
                    # Plateau (|Δacc| < δ since the last eval) doubles
                    # the gap up to the ceiling; movement snaps back to
                    # the base interval.  Evaluation is a pure observer,
                    # so this only changes which steps the history
                    # samples.
                    if (
                        self._last_eval_accuracy is not None
                        and abs(accuracy - self._last_eval_accuracy)
                        < eval_delta
                    ):
                        self._eval_interval_now = min(
                            2 * self._eval_interval_now, eval_max_interval
                        )
                    else:
                        self._eval_interval_now = eval_interval
                    self._last_eval_accuracy = accuracy
                    self._next_eval = steps_run + self._eval_interval_now
                obs.evaluated(steps_run, accuracy, loss)
                if (
                    target_accuracy is not None
                    and self._reached_at is None
                    and accuracy >= target_accuracy
                ):
                    self._reached_at = steps_run
                    if stop_at_target:
                        stop_early = True
            step_end = clock()
            obs.end_step(t, step_t0, step_end)
            yield StepOutcome(
                step=t,
                steps_run=steps_run,
                participants=self._total_participants - participants_before,
                synced=synced,
                evaluated=step_accuracy is not None,
                accuracy=step_accuracy,
                loss=step_loss,
                reached_target=self._reached_at is not None,
                stop=stop_early,
                seconds=step_end - step_t0,
            )
            # Checkpoint k is written only once the consumer asks for
            # more, so what it records of step k (the coordinator's
            # round-log line) is durable before checkpoint k can become
            # the recovery point.
            self._maybe_write_checkpoint(steps_run)
            if stop_early:
                break

        obs.run_end(
            steps_run=steps_run,
            final_accuracy=history.final_accuracy(),
            best_accuracy=history.best_accuracy(),
            reached_target_at=self._reached_at,
            mean_participants_per_step=(
                self._total_participants / steps_run if steps_run else 0.0
            ),
        )
