"""repro — reproduction of MACH (ICDCS 2024).

Mobility-aware Device Sampling for Statistical Heterogeneity in
Hierarchical Federated Learning, Zhang et al., ICDCS 2024.

Quickstart::

    from repro import (
        HFLConfig, HFLTrainer, MACHSampler, UniformSampler,
        make_federated_task, MarkovMobilityModel, build_model,
    )

    devices, test = make_federated_task("mnist", num_devices=20,
                                        samples_per_device=50, image_size=12)
    trace = MarkovMobilityModel.stay_or_jump(4, 0.8).sample_trace(200, 20, rng=0)
    config = HFLConfig(learning_rate=0.05, sync_interval=5)
    trainer = HFLTrainer(
        model_factory=lambda rng: build_model("mnist", (1, 12, 12), rng=rng),
        device_datasets=devices, trace=trace,
        sampler=MACHSampler(), config=config, test_dataset=test,
    )
    result = trainer.run(num_steps=200, target_accuracy=0.75)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    EdgeSamplingConfig,
    MACHConfig,
    MACHSampler,
    bound_minimizing_probabilities,
    convergence_bound,
    paper_optimal_probabilities,
    sampling_objective,
)
from repro.data import (
    Dataset,
    make_blobs_dataset,
    make_federated_task,
    make_synthetic_image_dataset,
)
from repro.hfl import HFLConfig, HFLTrainer, TelemetryRecorder, TrainingResult
from repro.mobility import (
    MarkovMobilityModel,
    MobilityTrace,
    TelecomTraceGenerator,
    static_trace,
)
from repro.nn import build_cifar_cnn, build_mlp, build_mnist_cnn, build_model
from repro.runtime import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.sampling import (
    ClassBalanceSampler,
    MACHOracleSampler,
    OortSampler,
    PowerOfChoiceSampler,
    Sampler,
    StatisticalSampler,
    UniformSampler,
)

__version__ = "1.0.0"

__all__ = [
    "EdgeSamplingConfig",
    "MACHConfig",
    "MACHSampler",
    "convergence_bound",
    "sampling_objective",
    "paper_optimal_probabilities",
    "bound_minimizing_probabilities",
    "Dataset",
    "make_federated_task",
    "make_synthetic_image_dataset",
    "make_blobs_dataset",
    "HFLConfig",
    "HFLTrainer",
    "TrainingResult",
    "MobilityTrace",
    "MarkovMobilityModel",
    "TelecomTraceGenerator",
    "static_trace",
    "build_model",
    "build_mnist_cnn",
    "build_cifar_cnn",
    "build_mlp",
    "Executor",
    "make_executor",
    "SerialExecutor",
    "ProcessExecutor",
    "Sampler",
    "UniformSampler",
    "ClassBalanceSampler",
    "StatisticalSampler",
    "MACHOracleSampler",
    "OortSampler",
    "PowerOfChoiceSampler",
    "TelemetryRecorder",
    "__version__",
]
