"""Integration tests: extension samplers inside the trainer."""

import numpy as np
import pytest

from repro.data.synthetic import make_federated_task
from repro.hfl.config import HFLConfig
from repro.hfl.trainer import HFLTrainer
from repro.mobility.markov import MarkovMobilityModel
from repro.nn.architectures import build_mlp
from repro.sampling import OortSampler, PowerOfChoiceSampler, UniformSampler


def build_trainer(sampler, steps=30, seed=0):
    devices, test = make_federated_task(
        "blobs", num_devices=10, samples_per_device=25, test_samples=80, rng=seed
    )
    trace = MarkovMobilityModel.stay_or_jump(3, 0.8, rng=seed).sample_trace(
        steps, 10, rng=seed + 1
    )
    return HFLTrainer(
        model_factory=lambda rng: build_mlp(16, hidden=(8,), rng=rng),
        device_datasets=devices,
        trace=trace,
        sampler=sampler,
        config=HFLConfig(
            learning_rate=0.05, local_epochs=3, batch_size=8,
            sync_interval=5, participation_fraction=0.5, seed=seed,
        ),
        test_dataset=test,
    )


class TestExtensionSamplersInTrainer:
    @pytest.mark.parametrize(
        "sampler_factory",
        [
            lambda: OortSampler(rng=0),
            lambda: PowerOfChoiceSampler(rng=0),
        ],
    )
    def test_full_run(self, sampler_factory):
        trainer = build_trainer(sampler_factory(), steps=30)
        result = trainer.run(30)
        assert result.steps_run == 30
        assert result.history.final_accuracy() > result.history.accuracy[0] - 0.1
        assert np.all(result.participation_counts >= 0)

    def test_power_of_choice_concentrates_participation(self):
        """Greedy selection yields lower participation fairness than
        uniform sampling."""
        from repro.hfl.telemetry import TelemetryRecorder

        results = {}
        for name, sampler in [
            ("uniform", UniformSampler()),
            ("poc", PowerOfChoiceSampler(rng=0)),
        ]:
            devices, test = make_federated_task(
                "blobs", num_devices=10, samples_per_device=25,
                test_samples=80, rng=0,
            )
            trace = MarkovMobilityModel.stay_or_jump(3, 0.8, rng=0).sample_trace(
                60, 10, rng=1
            )
            telemetry = TelemetryRecorder()
            trainer = HFLTrainer(
                model_factory=lambda rng: build_mlp(16, hidden=(8,), rng=rng),
                device_datasets=devices,
                trace=trace,
                sampler=sampler,
                config=HFLConfig(
                    learning_rate=0.05, local_epochs=3, batch_size=8,
                    sync_interval=5, participation_fraction=0.4, seed=0,
                ),
                test_dataset=test,
                telemetry=telemetry,
            )
            trainer.run(60)
            results[name] = telemetry.jain_fairness()
        assert results["poc"] <= results["uniform"] + 0.05


class TestMobilityExperiment:
    def test_driver_structure(self, monkeypatch):
        from repro.experiments import mobility
        from repro.experiments.config import PRESETS, ScenarioConfig

        tiny = ScenarioConfig(
            task="blobs", num_devices=8, num_edges=2, samples_per_device=20,
            test_samples=60, image_size=None, num_steps=10, local_epochs=2,
            batch_size=8, learning_rate=0.05, sync_interval=5,
            target_accuracy=0.15, trace_kind="markov", model_scale="tiny",
        )
        monkeypatch.setitem(PRESETS, "blobs-tiny", tiny)
        report = mobility.run(
            preset="tiny", tasks=("blobs",), stay_probabilities=(0.5, 0.9),
            sampler_names=("mach", "uniform"),
        )
        sweep = report.sweeps["blobs"]
        assert sweep.sweep_values == [0.5, 0.9]
        assert "EXT-MOBILITY" in report.render()
