"""Edge-case and failure-injection tests for the HFL engine."""

import math

import numpy as np
import pytest

from repro.core.edge_sampling import EdgeSamplingConfig, edge_strategy
from repro.core.experience import ExperienceTracker
from repro.core.mach import MACHSampler
from repro.data.synthetic import make_federated_task
from repro.hfl.config import HFLConfig
from repro.hfl.trainer import HFLTrainer
from repro.mobility.trace import MobilityTrace, static_trace
from repro.nn.architectures import build_mlp
from repro.sampling import UniformSampler


def make_trainer(trace, sampler=None, num_devices=None, seed=0, **cfg):
    num_devices = num_devices if num_devices is not None else trace.num_devices
    devices, test = make_federated_task(
        "blobs", num_devices=num_devices, samples_per_device=20,
        test_samples=60, rng=seed,
    )
    defaults = dict(
        learning_rate=0.05, local_epochs=2, batch_size=8,
        sync_interval=5, participation_fraction=0.5, seed=seed,
    )
    defaults.update(cfg)
    return HFLTrainer(
        model_factory=lambda rng: build_mlp(16, hidden=(8,), rng=rng),
        device_datasets=devices,
        trace=trace,
        sampler=sampler if sampler is not None else UniformSampler(),
        config=HFLConfig(**defaults),
        test_dataset=test,
    )


class TestDegenerateTopologies:
    def test_permanently_empty_edge(self):
        """An edge no device ever visits must not break training or
        cloud aggregation (its weight is 0 in Eq. (6))."""
        assignments = np.zeros((20, 6), dtype=int)
        assignments[:, 3:] = 1  # edges 0 and 1 used; edge 2 never
        trace = MobilityTrace(assignments, num_edges=3)
        trainer = make_trainer(trace)
        result = trainer.run(20)
        assert result.steps_run == 20
        assert all(np.isfinite(a) for a in result.history.accuracy)

    def test_single_device_per_edge(self):
        trace = static_trace(15, 3, 3, assignment=np.array([0, 1, 2]))
        trainer = make_trainer(trace)
        result = trainer.run(15)
        assert result.steps_run == 15

    def test_single_edge_degenerates_to_flat_fl(self):
        trace = static_trace(15, 6, 1, assignment=np.zeros(6, dtype=int))
        trainer = make_trainer(trace)
        result = trainer.run(15)
        assert result.history.final_accuracy() > 0.0

    def test_all_devices_in_one_edge_each_step(self):
        """Extreme churn: the entire population teleports between edges."""
        assignments = np.array([[t % 3] * 5 for t in range(18)])
        trace = MobilityTrace(assignments, num_edges=3)
        trainer = make_trainer(trace)
        result = trainer.run(18)
        assert result.steps_run == 18

    def test_trace_shorter_than_horizon_wraps(self):
        trace = static_trace(5, 4, 2, rng=0)
        trainer = make_trainer(trace)
        result = trainer.run(20)  # 4x the trace length — cyclic replay
        assert result.steps_run == 20

    def test_capacity_exceeding_population(self):
        """Explicit per-edge capacities above the edge populations: q is
        capped at 1 and every device trains every step."""
        trace = static_trace(10, 4, 2, rng=0)
        trainer = make_trainer(trace, capacity_per_edge=np.array([4.0, 4.0]))
        result = trainer.run(10)
        assert result.mean_participants_per_step == pytest.approx(4.0)


class TestNumericalExtremes:
    def test_experience_with_infinite_norm(self):
        """A diverged device (inf gradient norm) must not poison the
        edge strategy: inf estimates map to the exploration ceiling."""
        tracker = ExperienceTracker(1)
        tracker.record(0, [math.inf])
        tracker.sync_all(5)
        estimate = tracker.estimates([0])[0]
        assert estimate == math.inf
        q = edge_strategy(
            np.array([estimate, 4.0, 1.0]), 1.5, EdgeSamplingConfig()
        )
        assert np.all(np.isfinite(q))
        assert q[0] >= q[1] >= q[2]

    def test_edge_strategy_with_huge_spread(self):
        q = edge_strategy(
            np.array([1e-12, 1e12]), 1.0, EdgeSamplingConfig(alpha=50.0, beta=0.5)
        )
        assert np.all(np.isfinite(q))
        assert q.sum() == pytest.approx(1.0)

    def test_mach_survives_tiny_gradients(self):
        """Near-zero gradients everywhere (converged model) must keep the
        strategy valid (uniform-ish, not NaN)."""
        sampler = MACHSampler()
        from repro.sampling.base import DeviceProfile

        sampler.setup([DeviceProfile(m, 5, np.ones(2) / 2) for m in range(4)], 1)
        for m in range(4):
            sampler.observe_participation(0, m, [1e-300] * 3, 1e-300)
        sampler.on_global_sync(0)
        q = sampler.probabilities(1, 0, np.arange(4), 2.0)
        assert np.all(np.isfinite(q))
        assert q.sum() == pytest.approx(2.0)

    def test_high_learning_rate_divergence_is_contained(self):
        """A destructive learning rate may wreck accuracy but must not
        raise or emit non-finite history."""
        trace = static_trace(10, 4, 2, rng=0)
        trainer = make_trainer(trace, learning_rate=50.0)
        result = trainer.run(10)
        assert len(result.history.accuracy) > 0
        assert all(np.isfinite(a) for a in result.history.accuracy)
