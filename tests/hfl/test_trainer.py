"""Integration tests for the Algorithm-1 training loop."""

import numpy as np
import pytest

from repro.core.mach import MACHConfig, MACHSampler
from repro.data.synthetic import make_federated_task
from repro.hfl.config import HFLConfig
from repro.hfl.trainer import HFLTrainer
from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.trace import static_trace
from repro.nn.architectures import build_mlp
from repro.sampling import (
    ClassBalanceSampler,
    MACHOracleSampler,
    StatisticalSampler,
    UniformSampler,
)


def build_trainer(sampler, seed=0, num_devices=10, num_edges=3, steps=40,
                  aggregation="fedavg", **config_overrides):
    devices, test = make_federated_task(
        "blobs", num_devices=num_devices, samples_per_device=30,
        test_samples=120, rng=seed,
    )
    trace = MarkovMobilityModel.stay_or_jump(num_edges, 0.8, rng=seed).sample_trace(
        steps, num_devices, rng=seed + 1
    )
    config = HFLConfig(
        learning_rate=0.05, local_epochs=4, batch_size=8, sync_interval=5,
        participation_fraction=0.5, aggregation=aggregation, seed=seed,
        **config_overrides,
    )
    return HFLTrainer(
        model_factory=lambda rng: build_mlp(16, hidden=(16,), rng=rng),
        device_datasets=devices,
        trace=trace,
        sampler=sampler,
        config=config,
        test_dataset=test,
    )


SAMPLERS = [
    UniformSampler,
    ClassBalanceSampler,
    StatisticalSampler,
    MACHSampler,
    MACHOracleSampler,
]


class TestHFLTrainerBasics:
    def test_rejects_device_count_mismatch(self):
        devices, test = make_federated_task("blobs", 4, 10, test_samples=30, rng=0)
        trace = static_trace(10, 5, 2, rng=0)  # 5 devices, 4 datasets
        with pytest.raises(ValueError, match="devices"):
            HFLTrainer(
                lambda rng: build_mlp(16, rng=rng), devices, trace,
                UniformSampler(), HFLConfig(), test,
            )

    def test_rejects_empty_test_set(self):
        devices, _ = make_federated_task("blobs", 4, 10, test_samples=30, rng=0)
        trace = static_trace(10, 4, 2, rng=0)
        from repro.data.dataset import Dataset

        empty = Dataset(np.zeros((0, 16)), np.zeros(0, dtype=int), 10)
        with pytest.raises(ValueError, match="test dataset"):
            HFLTrainer(
                lambda rng: build_mlp(16, rng=rng), devices, trace,
                UniformSampler(), HFLConfig(), empty,
            )

    def test_rejects_non_positive_steps(self):
        trainer = build_trainer(UniformSampler())
        with pytest.raises(ValueError):
            trainer.run(0)

    @pytest.mark.parametrize("sampler_cls", SAMPLERS)
    def test_runs_with_every_sampler(self, sampler_cls):
        trainer = build_trainer(sampler_cls(), steps=20)
        result = trainer.run(20)
        assert result.steps_run == 20
        assert len(result.history.steps) == 4  # eval every Tg=5
        assert result.sampler_name == sampler_cls.name

    def test_training_improves_accuracy(self):
        trainer = build_trainer(UniformSampler(), steps=60)
        result = trainer.run(60)
        assert result.history.final_accuracy() > result.history.accuracy[0]
        assert result.history.final_accuracy() > 0.5

    def test_deterministic_under_seed(self):
        r1 = build_trainer(UniformSampler(), seed=3).run(20)
        r2 = build_trainer(UniformSampler(), seed=3).run(20)
        assert r1.history.accuracy == r2.history.accuracy
        np.testing.assert_array_equal(
            r1.participation_counts, r2.participation_counts
        )

    def test_different_seeds_differ(self):
        r1 = build_trainer(UniformSampler(), seed=3).run(20)
        r2 = build_trainer(UniformSampler(), seed=4).run(20)
        assert r1.history.accuracy != r2.history.accuracy

    def test_participation_respects_capacity_on_average(self):
        trainer = build_trainer(UniformSampler(), num_devices=12, num_edges=3,
                                steps=60)
        result = trainer.run(60)
        # 50% of 12 devices = 6 expected participants per step.
        assert result.mean_participants_per_step == pytest.approx(6.0, abs=1.2)

    def test_stop_at_target(self):
        trainer = build_trainer(UniformSampler(), steps=100)
        result = trainer.run(100, target_accuracy=0.3, stop_at_target=True)
        assert result.reached_target_at is not None
        assert result.steps_run <= 100
        assert result.steps_run == result.reached_target_at

    def test_unreached_target_is_none(self):
        trainer = build_trainer(UniformSampler(), steps=10)
        result = trainer.run(10, target_accuracy=0.999)
        assert result.reached_target_at is None

    def test_eval_interval_override(self):
        trainer = build_trainer(UniformSampler(), steps=20, eval_interval=10)
        result = trainer.run(20)
        assert result.history.steps == [10, 20]


class TestRuntimeBackends:
    """The repro.runtime determinism contract, end to end."""

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_backends_match_serial_history(self, backend):
        serial = build_trainer(UniformSampler(), seed=7).run(15)
        trainer = build_trainer(
            UniformSampler(), seed=7, executor=backend, num_workers=2
        )
        with trainer:
            parallel = trainer.run(15)
        assert serial.history.accuracy == parallel.history.accuracy
        assert serial.history.loss == parallel.history.loss
        np.testing.assert_array_equal(
            serial.participation_counts, parallel.participation_counts
        )

    def test_feedback_driven_sampler_matches_serial(self):
        """Samplers whose strategies depend on participation feedback
        (EMA utilities) must still see identical observation order."""
        serial = build_trainer(StatisticalSampler(), seed=2).run(15)
        trainer = build_trainer(
            StatisticalSampler(), seed=2, executor="process", num_workers=2
        )
        with trainer:
            parallel = trainer.run(15)
        assert serial.history.accuracy == parallel.history.accuracy

    def test_oracle_sampler_matches_serial(self):
        serial = build_trainer(MACHOracleSampler(), seed=5).run(10)
        trainer = build_trainer(
            MACHOracleSampler(), seed=5, executor="process", num_workers=2
        )
        with trainer:
            parallel = trainer.run(10)
        assert serial.history.accuracy == parallel.history.accuracy

    def test_executor_instance_ownership(self):
        """A caller-provided executor is used as-is and never closed."""
        from repro.runtime import SerialExecutor

        executor = SerialExecutor()
        devices, test = make_federated_task(
            "blobs", num_devices=6, samples_per_device=20, test_samples=60, rng=0
        )
        trace = static_trace(10, 6, 2, rng=0)
        trainer = HFLTrainer(
            lambda rng: build_mlp(16, hidden=(8,), rng=rng), devices, trace,
            UniformSampler(), HFLConfig(local_epochs=2, batch_size=4), test,
            executor=executor,
        )
        assert trainer.executor is executor
        assert trainer._owns_executor is False
        trainer.run(5)
        trainer.close()  # must not close the caller's executor

    def test_invalid_executor_name_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            HFLConfig(executor="gpu")
        with pytest.raises(ValueError, match="num_workers"):
            HFLConfig(num_workers=0)


class TestAggregationModes:
    @pytest.mark.parametrize("mode", ["delta", "normalized", "fedavg"])
    def test_stable_modes_learn(self, mode):
        trainer = build_trainer(UniformSampler(), steps=40, aggregation=mode)
        result = trainer.run(40)
        assert result.history.final_accuracy() > 0.4

    def test_model_mode_runs(self):
        """The literal Eq. (5) mode must run; §III-B.2 predicts it is
        noisier, so we only require it to produce finite history."""
        trainer = build_trainer(UniformSampler(), steps=15, aggregation="model")
        result = trainer.run(15)
        assert all(np.isfinite(a) for a in result.history.accuracy)


class TestMACHIntegration:
    def test_mach_participation_counts_all_positive(self):
        """The UCB exploration bonus must drive every device to be
        sampled at least once over a long-enough horizon."""
        trainer = build_trainer(
            MACHSampler(MACHConfig(sync_interval=5)), num_devices=10, steps=60
        )
        result = trainer.run(60)
        assert np.all(result.participation_counts > 0)

    def test_mach_and_oracle_track_gradient_norms(self):
        trainer = build_trainer(MACHOracleSampler(), steps=20)
        result = trainer.run(20)
        assert result.steps_run == 20

    def test_mobility_changes_edge_membership(self):
        """Sanity: with a mobile trace, devices appear under different
        edges across time (the core premise of the paper)."""
        trainer = build_trainer(UniformSampler(), steps=30)
        trace = trainer.trace
        moved = any(
            trace.edge_of(0, m) != trace.edge_of(t, m)
            for t in range(trace.num_steps)
            for m in range(trace.num_devices)
        )
        assert moved
