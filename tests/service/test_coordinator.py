"""Coordinator lifecycle and the drained-queue bit-identity contract.

The service drives the trainer's step generator through the same
barrier pipeline as the synchronous trainer, so a drained queue must be
bit-identical to a synchronous run on the same seed, on both executor
backends.  Lifecycle control (pause / resume / stop) gates the loop at
step boundaries only, so it can never split an engine step.
"""

import json

import numpy as np
import pytest

from repro.experiments.config import SAMPLER_NAMES
from repro.experiments.runner import run_single
from repro.faults import TrainerCheckpoint
from repro.service import (
    Coordinator,
    RoundStatus,
    RunStatus,
    TERMINAL_STATES,
    UnknownRunError,
)

from tests.service.conftest import tiny_scenario


class TestSubmitAndComplete:
    def test_submit_runs_to_completion(self, scenario):
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="mach")
            result = coordinator.result(run_id, timeout=120.0)
            status = coordinator.status(run_id)
        assert run_id == "run-0001"
        assert status.state == "completed"
        assert status.terminal
        assert status.steps_run == scenario.num_steps
        assert result.steps_run == scenario.num_steps
        assert result.final_cloud_model is not None

    def test_run_ids_are_sequential(self, scenario):
        with Coordinator() as coordinator:
            first = coordinator.submit(scenario, sampler="uniform")
            second = coordinator.submit(scenario, sampler="mach")
            assert [first, second] == ["run-0001", "run-0002"]
            coordinator.result(second, timeout=120.0)
            runs = coordinator.list_runs()
        assert [r.run_id for r in runs] == [first, second]
        assert all(r.state == "completed" for r in runs)

    def test_unknown_run_raises(self, scenario):
        with Coordinator() as coordinator:
            with pytest.raises(UnknownRunError):
                coordinator.status("run-9999")
            with pytest.raises(UnknownRunError):
                coordinator.stop("nope")

    def test_unknown_sampler_rejected_at_submit(self, scenario):
        with Coordinator() as coordinator:
            with pytest.raises(ValueError) as excinfo:
                coordinator.submit(scenario, sampler="gradient-descent")
            assert str(excinfo.value) == (
                f"unknown sampler 'gradient-descent'; choose from {SAMPLER_NAMES}"
            )

    def test_failed_run_captures_error(self, scenario):
        # model_scale is only validated when the trainer is built, so
        # this submits cleanly and fails on the dispatcher thread.
        bad = tiny_scenario(model_scale="galactic")
        with Coordinator() as coordinator:
            run_id = coordinator.submit(bad, sampler="uniform")
            with pytest.raises(RuntimeError, match="without a result"):
                coordinator.result(run_id, timeout=120.0)
            status = coordinator.status(run_id)
        assert status.state == "failed"
        assert status.error


class TestStream:
    def test_stream_yields_every_round_in_order(self, scenario):
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="mach")
            rounds = list(coordinator.stream(run_id, follow=True, timeout=120.0))
        assert len(rounds) == scenario.num_steps
        assert all(isinstance(r, RoundStatus) for r in rounds)
        assert [r.step for r in rounds] == list(range(scenario.num_steps))
        assert [r.steps_run for r in rounds] == list(
            range(1, scenario.num_steps + 1)
        )
        # Sync flags land on the T_g boundary (0-based step clock).
        assert [r.synced for r in rounds] == [
            (r.step % scenario.sync_interval) == 0 for r in rounds
        ]
        # Evaluation points carry accuracy, others don't.
        for r in rounds:
            assert (r.accuracy is not None) == r.evaluated

    def test_non_follow_stream_returns_rounds_so_far(self, scenario):
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="uniform")
            coordinator.result(run_id, timeout=120.0)
            first = list(coordinator.stream(run_id))
            again = list(coordinator.stream(run_id))
        assert len(first) == scenario.num_steps
        assert first == again  # replayable from the in-memory log


class TestLifecycle:
    def test_pause_holds_then_resume_completes(self, scenario):
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="uniform")
            coordinator.pause(run_id)
            # Paused (or still queued-paused): the run must not finish.
            assert not coordinator._record(run_id).done.wait(0.3)
            state = coordinator.status(run_id).state
            assert state in ("queued", "paused")
            coordinator.resume_run(run_id)
            result = coordinator.result(run_id, timeout=120.0)
        assert coordinator.status(run_id).state == "completed"
        assert result.steps_run == scenario.num_steps

    def test_stop_mid_run_keeps_partial_result(self):
        scenario = tiny_scenario(num_steps=400)
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="uniform")
            coordinator.pause(run_id)
            coordinator.resume_run(run_id)
            # Wait for at least one round, then stop at the boundary.
            stream = coordinator.stream(run_id, follow=True, timeout=120.0)
            first = next(stream)
            coordinator.stop(run_id)
            result = coordinator.result(run_id, timeout=120.0)
            status = coordinator.status(run_id)
        assert first.steps_run == 1
        assert status.state == "stopped"
        assert 1 <= result.steps_run < scenario.num_steps
        assert result.final_cloud_model is not None

    def test_stop_while_queued_cancels(self, scenario):
        with Coordinator() as coordinator:
            # The dispatcher is busy with the first run, so the second
            # is still queued when we stop it.
            blocker = coordinator.submit(
                tiny_scenario(num_steps=40), sampler="uniform"
            )
            victim = coordinator.submit(scenario, sampler="uniform")
            status = coordinator.stop(victim)
            assert status.state == "stopped"
            with pytest.raises(RuntimeError, match="without a result"):
                coordinator.result(victim, timeout=120.0)
            coordinator.result(blocker, timeout=120.0)

    def test_submit_after_shutdown_rejected(self, scenario):
        coordinator = Coordinator()
        coordinator.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            coordinator.submit(scenario, sampler="mach")


class TestDurableState:
    def test_state_dir_layout_and_manifest(self, scenario, tmp_path):
        with Coordinator(state_dir=tmp_path, checkpoint_every=2) as coordinator:
            run_id = coordinator.submit(
                scenario, sampler="mach", preset="blobs-bench"
            )
            coordinator.result(run_id, timeout=120.0)
        run_dir = tmp_path / "runs" / run_id
        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["state"] == "completed"
        assert manifest["sampler"] == "mach"
        assert manifest["preset"] == "blobs-bench"
        assert manifest["config"]["num_steps"] == scenario.num_steps
        assert (run_dir / "checkpoint.json").is_file()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == scenario.num_steps
        assert json.loads(lines[-1])["steps_run"] == scenario.num_steps

    def test_run_ids_continue_across_restarts(self, scenario, tmp_path):
        with Coordinator(state_dir=tmp_path) as coordinator:
            assert coordinator.submit(scenario, sampler="uniform") == "run-0001"
            coordinator.result("run-0001", timeout=120.0)
        with Coordinator(state_dir=tmp_path) as coordinator:
            assert coordinator.recover() == []  # terminal runs stay done
            assert coordinator.submit(scenario, sampler="uniform") == "run-0002"
            coordinator.result("run-0002", timeout=120.0)


class TestDrainedQueueBitIdentity:
    """The acceptance bar: service run == synchronous trainer, bitwise."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_service_matches_synchronous_trainer(self, executor):
        scenario = tiny_scenario(
            executor=executor,
            num_workers=2,
            num_steps=8,
            fault_profile="dropout=0.2,mobility=1.0",
            max_staleness=2,
        )
        reference = run_single(scenario, "mach")
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="mach")
            served = coordinator.result(run_id, timeout=300.0)
        assert reference.final_cloud_model is not None
        np.testing.assert_array_equal(
            served.final_cloud_model, reference.final_cloud_model
        )
        assert served.history.steps == reference.history.steps
        assert served.history.accuracy == reference.history.accuracy
        assert served.history.loss == reference.history.loss
        np.testing.assert_array_equal(
            served.participation_counts, reference.participation_counts
        )

    def test_summary_sha_matches_reference_vector(self, scenario):
        import hashlib

        reference = run_single(scenario, "mach")
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="mach")
            coordinator.result(run_id, timeout=120.0)
            summary = coordinator.summary(run_id)
        expected = hashlib.sha256(
            reference.final_cloud_model.tobytes()
        ).hexdigest()
        assert summary.cloud_model_sha256 == expected
        assert summary.steps_run == scenario.num_steps


class TestObservabilitySurface:
    def test_health_ok_when_idle_and_after_runs(self, scenario):
        with Coordinator() as coordinator:
            assert coordinator.health().verdict == "ok"
            run_id = coordinator.submit(scenario, sampler="uniform")
            coordinator.result(run_id, timeout=120.0)
            report = coordinator.health()
        assert report.verdict == "ok"
        assert report.ready

    def test_prometheus_scrape_counts_steps(self, scenario):
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="uniform")
            coordinator.result(run_id, timeout=120.0)
            text = coordinator.prometheus()
        assert "# TYPE repro_steps_total counter" in text
        assert f"repro_steps_total {scenario.num_steps}" in text

    def test_faulty_run_feeds_metrics_and_health_not_checkpoints(self, tmp_path):
        """Fault, round and phase metrics reach the scrape and the health
        rules with no telemetry recorder attached, and the service's
        checkpoints carry no telemetry stream."""
        scenario = tiny_scenario(fault_profile="severe")
        with Coordinator(state_dir=tmp_path, checkpoint_every=2) as coordinator:
            run_id = coordinator.submit(scenario, sampler="mach")
            coordinator.result(run_id, timeout=120.0)
            text = coordinator.prometheus()
            report = coordinator.health()
        assert "repro_rounds_total{edge=" in text
        assert "repro_faults_total{kind=" in text
        assert 'repro_phase_seconds_count{phase="execute"}' in text
        values = {row["name"]: row["value"] for row in report.rules}
        assert values["sync_failure_rate"] is not None
        assert values["lost_round_rate"] is not None
        checkpoint = TrainerCheckpoint.load(
            tmp_path / "runs" / run_id / "checkpoint.json"
        )
        assert checkpoint.step == scenario.num_steps
        assert checkpoint.telemetry_state is None

    def test_round_statuses_survive_json_round_trip(self, scenario):
        with Coordinator() as coordinator:
            run_id = coordinator.submit(scenario, sampler="uniform")
            rounds = list(coordinator.stream(run_id, follow=True, timeout=120.0))
            status = coordinator.status(run_id)
        for r in rounds:
            assert RoundStatus.from_dict(json.loads(json.dumps(r.to_dict()))) == r
        assert RunStatus.from_dict(status.to_dict()) == status
        assert status.state in TERMINAL_STATES
