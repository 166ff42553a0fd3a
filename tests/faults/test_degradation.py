"""Trainer graceful degradation under injected faults."""

import numpy as np
import pytest

from repro.core.mach import MACHSampler
from repro.data.synthetic import make_federated_task
from repro.faults import FAULT_KINDS, FaultModel, SyncOutcome, UploadFaults
from repro.hfl.config import HFLConfig
from repro.hfl.edge import Edge
from repro.hfl.device import LocalUpdateResult
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.trainer import HFLTrainer
from repro.mobility.markov import MarkovMobilityModel
from repro.nn.architectures import build_mlp
from repro.sampling import UniformSampler


class RecordingSampler(UniformSampler):
    """Uniform sampler that logs participation/failure feedback."""

    def __init__(self):
        super().__init__()
        self.participations = []  # (t, device)
        self.failures = []  # (t, device)

    def observe_participation(self, t, device, grad_sq_norms, mean_loss):
        self.participations.append((t, device))
        super().observe_participation(t, device, grad_sq_norms, mean_loss)

    def observe_failure(self, t, device):
        self.failures.append((t, device))
        super().observe_failure(t, device)


class ScriptedFaultModel(FaultModel):
    """Deterministic fault model for surgical tests.

    ``fail`` maps a predicate over (step, edge, device, departed) to a
    fault kind; ``corrupt`` is a predicate over (step, edge, device);
    ``sync_fails`` is a predicate over (step, edge).
    """

    name = "scripted"

    def __init__(self, fail=None, corrupt=None, sync_fails=None):
        self._fail = fail or (lambda t, e, m, departed: None)
        self._corrupt = corrupt or (lambda t, e, m: False)
        self._sync_fails = sync_fails or (lambda t, e: False)

    def upload_faults(self, step, edge, devices, departed, num_concurrent,
                      payload_size) -> UploadFaults:
        lost, bursts = {}, {}
        for m, left in zip(devices.tolist(), departed.tolist()):
            kind = self._fail(step, edge, m, left)
            if kind is not None:
                lost[m] = kind
            elif self._corrupt(step, edge, m):
                bursts[m] = (np.array([0]), np.array([np.nan]))
        return UploadFaults(lost=lost, bursts=bursts)

    def sync_outcome(self, step, edge) -> SyncOutcome:
        if self._sync_fails(step, edge):
            return SyncOutcome(failed_attempts=3, success=False, backoff_seconds=1.5)
        return SyncOutcome(failed_attempts=0, success=True, backoff_seconds=0.0)


def build_trainer(sampler, seed=0, num_devices=10, num_edges=3, steps=40,
                  telemetry=None, fault_model=None, churn=None, data_seed=None,
                  **config_overrides):
    devices, test = make_federated_task(
        "blobs", num_devices=num_devices, samples_per_device=30,
        test_samples=120, rng=seed if data_seed is None else data_seed,
    )
    trace = MarkovMobilityModel.stay_or_jump(num_edges, 0.8, rng=seed).sample_trace(
        steps, num_devices, rng=seed + 1
    )
    config = HFLConfig(
        learning_rate=0.05, local_epochs=4, batch_size=8, sync_interval=5,
        participation_fraction=0.5, aggregation="fedavg", seed=seed,
        **config_overrides,
    )
    return HFLTrainer(
        model_factory=lambda rng: build_mlp(16, hidden=(16,), rng=rng),
        device_datasets=devices,
        trace=trace,
        sampler=sampler,
        config=config,
        test_dataset=test,
        telemetry=telemetry,
        fault_model=fault_model,
        churn=churn,
    )


class TestFaultProfileIntegration:
    def test_severe_profile_run_completes(self):
        """Every fault type enabled: training still finishes with a
        finite history and telemetry accounts for the losses."""
        telemetry = TelemetryRecorder()
        trainer = build_trainer(
            UniformSampler(), telemetry=telemetry, fault_profile="severe",
        )
        result = trainer.run(num_steps=15)
        assert result.steps_run == 15
        assert np.all(np.isfinite(result.history.accuracy))
        assert np.all(np.isfinite(result.history.loss))
        summary = telemetry.fault_summary()
        assert summary, "a severe profile must actually produce faults"
        assert set(summary) <= set(FAULT_KINDS) | {"stale_sync"}

    def test_inactive_profile_matches_no_profile(self):
        """A zero-rate profile must be exactly the fault-free engine."""
        base = build_trainer(UniformSampler()).run(num_steps=10)
        nulled = build_trainer(UniformSampler(), fault_profile="none").run(
            num_steps=10
        )
        assert base.history.accuracy == nulled.history.accuracy
        assert base.history.loss == nulled.history.loss
        np.testing.assert_array_equal(
            base.participation_counts, nulled.participation_counts
        )


class TestGracefulDegradation:
    def test_lost_everyone_keeps_edge_models(self):
        """A round that loses every sampled upload must not move any
        model: the edges keep their previous (initial) weights."""
        sampler = RecordingSampler()
        trainer = build_trainer(
            sampler,
            fault_model=ScriptedFaultModel(
                fail=lambda t, e, m, departed: "departure"
            ),
        )
        initial = trainer.cloud.model.copy()
        result = trainer.run(num_steps=6)
        # Rounds change nothing; sync re-averages the identical edge
        # models, so only summation-order noise (~1e-16) may appear.
        for edge in trainer.edges:
            np.testing.assert_allclose(edge.model, initial, atol=1e-12)
        np.testing.assert_allclose(trainer.cloud.model, initial, atol=1e-12)
        assert result.mean_participants_per_step == 0.0
        assert not sampler.participations
        assert sampler.failures, "sampled devices must feed failure feedback"

    def test_corrupted_payload_never_reaches_aggregation(self):
        """A NaN payload is dropped as 'corruption' and the surviving
        aggregate stays finite."""
        telemetry = TelemetryRecorder()
        trainer = build_trainer(
            UniformSampler(),
            telemetry=telemetry,
            fault_model=ScriptedFaultModel(corrupt=lambda t, e, m: m == 0),
        )
        result = trainer.run(num_steps=8)
        for edge in trainer.edges:
            assert np.all(np.isfinite(edge.model))
        assert np.all(np.isfinite(result.history.loss))
        assert telemetry.fault_summary().get("corruption", 0) > 0
        # Device 0 never contributed an upload.
        assert result.participation_counts[0] == 0

    def test_sync_failure_falls_back_to_stale_model(self):
        telemetry = TelemetryRecorder()
        trainer = build_trainer(
            UniformSampler(),
            telemetry=telemetry,
            fault_model=ScriptedFaultModel(sync_fails=lambda t, e: e == 0),
        )
        initial = trainer.cloud.model.copy()
        trainer.run(num_steps=10)
        # Edge 0 never synced successfully: its stale fallback is still
        # the initial broadcast model.
        np.testing.assert_array_equal(trainer._last_synced[0], initial)
        assert telemetry.stale_sync_count() > 0
        assert telemetry.simulated_backoff_seconds() > 0
        assert np.all(np.isfinite(trainer.cloud.model))

    def test_mach_ucb_learns_reliability(self):
        """A device that always fails accrues participation counts with
        no exploitation credit, shrinking its UCB exploration bonus."""
        sampler = MACHSampler()
        trainer = build_trainer(
            sampler,
            fault_model=ScriptedFaultModel(
                fail=lambda t, e, m, departed: "departure" if m == 0 else None
            ),
        )
        trainer.run(num_steps=12)
        state = sampler.tracker.state_dict()
        assert state["participation_count"][0] > 0
        assert state["buffer_len"][0] == 0 and state["lifetime_best"][0] == 0.0
        assert np.isfinite(sampler.tracker.audit_components([0])["bonus"][0])


class TestMobilityDeparture:
    """Satellite: a device inside an edge at the plan phase but outside
    it at the finish phase must not corrupt aggregation weights or
    sampler feedback."""

    def make_trainer(self, sampler):
        return build_trainer(
            sampler,
            # Departed devices fail with certainty; everyone else lands.
            fault_model=ScriptedFaultModel(
                fail=lambda t, e, m, departed: "departure" if departed else None
            ),
        )

    def test_departures_occur_and_do_not_corrupt_state(self):
        sampler = RecordingSampler()
        trainer = self.make_trainer(sampler)
        result = trainer.run(num_steps=20)

        # The Markov trace actually moves devices, so mid-round
        # departures must have fired.
        assert sampler.failures, "expected at least one mobility departure"

        # Every failure really is a departure: the device was in the
        # edge's member set at step t but in a different edge at t + 1.
        trace = trainer.trace
        for t, m in sampler.failures:
            edges_t = [
                n for n in range(trace.num_edges)
                if m in set(int(x) for x in trace.devices_at(t, n))
            ]
            edges_next = [
                n for n in range(trace.num_edges)
                if m in set(int(x) for x in trace.devices_at(t + 1, n))
            ]
            assert edges_t != edges_next or edges_t == []

        # Feedback is exclusive: no device is both a participant and a
        # failure within the same step.
        participated = set(sampler.participations)
        failed = set(sampler.failures)
        assert not participated & failed

        # Aggregation weights stayed sane: finite models everywhere and
        # the recorded participation counts only count real uploads.
        for edge in trainer.edges:
            assert np.all(np.isfinite(edge.model))
        expected = np.zeros(trace.num_devices, dtype=int)
        for _, m in sampler.participations:
            expected[m] += 1
        np.testing.assert_array_equal(result.participation_counts, expected)

    def test_departed_device_models_excluded_from_aggregate(self):
        """With fedavg aggregation the post-round edge model is the mean
        of the survivors' models only — assert by reconstruction."""
        trainer = self.make_trainer(UniformSampler())
        t = 0
        pending = [trainer._plan_round(t, edge) for edge in trainer.edges]
        active = [p for p in pending if p is not None]
        step_results = trainer.executor.run_step([p.plan for p in active])
        for p, results in zip(active, step_results):
            if not results:
                continue
            survivors, failures, parked = trainer._screen_uploads(
                t, p.edge.edge_id, dict(results)
            )
            assert parked == {}  # max_staleness defaults to 0
            before = p.edge.model.copy()
            trainer._finish_round(t, p, results)
            if not survivors:
                np.testing.assert_array_equal(p.edge.model, before)
                continue
            deltas = [
                survivors[m].final_model - before for m in sorted(survivors)
            ]
            np.testing.assert_allclose(
                p.edge.model, before + np.mean(deltas, axis=0), atol=1e-12
            )


class TestEdgeRenormalization:
    def test_renormalize_averages_over_survivors(self):
        """With half the sampled set lost, raw Eq. (5) delta weights
        undershoot; renormalize makes them a survivor average."""
        edge = Edge(0, capacity=2.0, model_dim=4)
        edge.set_model(np.zeros(4))
        sampled = [0, 1]  # device 1 was sampled, its upload lost
        num_members = 2
        probabilities = np.array([0.5, 0.5])
        survivor = LocalUpdateResult(
            device_id=0,
            final_model=np.ones(4),
            grad_sq_norms=[1.0],
            mean_loss=0.5,
        )
        raw = Edge(0, capacity=2.0, model_dim=4)
        raw.set_model(np.zeros(4))
        raw.aggregate(
            sampled, probabilities, {0: survivor}, num_members, mode="delta"
        )
        # Raw IPW weight: 1 / (2 members * 0.5) = 1.0 → full delta.
        np.testing.assert_allclose(raw.model, np.ones(4))

        edge.aggregate(
            sampled, probabilities, {0: survivor}, num_members, mode="delta",
            renormalize=True,
        )
        # Renormalized: weights sum to 1 over the single survivor.
        np.testing.assert_allclose(edge.model, np.ones(4))

        # Asymmetric probabilities make the difference visible.
        uneven = Edge(0, capacity=2.0, model_dim=4)
        uneven.set_model(np.zeros(4))
        uneven.aggregate(
            sampled, np.array([0.25, 0.75]), {0: survivor}, num_members,
            mode="delta",
        )
        np.testing.assert_allclose(uneven.model, np.full(4, 2.0))

        renorm = Edge(0, capacity=2.0, model_dim=4)
        renorm.set_model(np.zeros(4))
        renorm.aggregate(
            sampled, np.array([0.25, 0.75]), {0: survivor}, num_members,
            mode="delta", renormalize=True,
        )
        np.testing.assert_allclose(renorm.model, np.ones(4))

    def test_non_finite_aggregate_is_rejected(self):
        edge = Edge(0, capacity=2.0, model_dim=4)
        bad = LocalUpdateResult(
            device_id=0,
            final_model=np.array([np.nan, 0.0, 0.0, 0.0]),
            grad_sq_norms=[1.0],
            mean_loss=0.5,
        )
        with pytest.raises(ValueError, match="non-finite"):
            edge.aggregate([0], np.array([1.0]), {0: bad}, 1, mode="delta")
