"""Hierarchical federated learning engine (Algorithm 1 of the paper).

The engine executes the §II-B protocol over a mobility trace: per time
step, every edge samples devices from its current member set (Eq. (3)),
sampled devices run I local SGD steps (Eq. (4)), edges aggregate with
inverse-probability weights (Eq. (5)) and the cloud aggregates edge
models every T_g steps (Eq. (6)).
"""

from repro.hfl.cloud import Cloud
from repro.hfl.config import HFLConfig
from repro.hfl.device import Device, LocalUpdateResult
from repro.hfl.edge import Edge
from repro.hfl.metrics import (
    TrainingHistory,
    evaluate,
)
from repro.hfl.latency import LatencyConfig, LatencySimulator
from repro.hfl.telemetry import EdgeRoundRecord, TelemetryRecorder
from repro.hfl.trainer import HFLTrainer, TrainingResult

__all__ = [
    "Cloud",
    "HFLConfig",
    "Device",
    "LocalUpdateResult",
    "Edge",
    "TrainingHistory",
    "TelemetryRecorder",
    "LatencyConfig",
    "LatencySimulator",
    "EdgeRoundRecord",
    "evaluate",
    "HFLTrainer",
    "TrainingResult",
]
