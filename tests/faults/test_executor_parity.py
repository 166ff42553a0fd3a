"""Acceptance: executor backends stay bit-identical under faults.

Fault decisions are drawn trainer-side from named ``(step, edge,
device)`` seed streams, after the executor barrier — so for a fixed
seed and fault profile, serial and process runs must produce
byte-for-byte identical histories, models and fault telemetry.
"""

import numpy as np

from repro.core.mach import MACHSampler
from repro.hfl.telemetry import TelemetryRecorder
from repro.runtime import EXECUTOR_KINDS

from tests.faults.test_degradation import build_trainer


def run_with_executor(kind, fault_profile, num_steps=8):
    telemetry = TelemetryRecorder()
    with build_trainer(
        MACHSampler(),
        telemetry=telemetry,
        fault_profile=fault_profile,
        executor=kind,
        num_workers=2,
    ) as trainer:
        result = trainer.run(num_steps=num_steps)
    edge_models = [edge.model.copy() for edge in trainer.edges]
    return result, edge_models, trainer.cloud.model.copy(), telemetry


def test_executors_bit_identical_under_severe_faults():
    """Both backends, every fault type enabled, one fixed seed."""
    baseline = run_with_executor("serial", "severe")
    base_result, base_edges, base_cloud, base_telemetry = baseline
    # The profile must actually be doing something for this to be a
    # meaningful parity test.
    assert base_telemetry.fault_summary()
    assert np.all(np.isfinite(base_result.history.accuracy))
    assert np.all(np.isfinite(base_result.history.loss))

    for kind in EXECUTOR_KINDS:
        if kind == "serial":
            continue
        result, edges, cloud, telemetry = run_with_executor(kind, "severe")
        assert result.history.steps == base_result.history.steps
        assert result.history.accuracy == base_result.history.accuracy
        assert result.history.loss == base_result.history.loss
        np.testing.assert_array_equal(
            result.participation_counts, base_result.participation_counts
        )
        for a, b in zip(edges, base_edges):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(cloud, base_cloud)
        assert telemetry.state_dict() == base_telemetry.state_dict()


def test_process_matches_serial_with_mobility_dropout():
    """Process backend vs serial under mobility-coupled dropout."""
    profile = "dropout=0.2,mobility=1.0,corruption=0.1"
    serial_result, serial_edges, serial_cloud, _ = run_with_executor(
        "serial", profile
    )
    process_result, process_edges, process_cloud, _ = run_with_executor(
        "process", profile
    )
    assert process_result.history.accuracy == serial_result.history.accuracy
    assert process_result.history.loss == serial_result.history.loss
    for a, b in zip(process_edges, serial_edges):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(process_cloud, serial_cloud)
