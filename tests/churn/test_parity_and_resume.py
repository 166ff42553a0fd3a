"""Executor parity, kill/resume replay and checkpoint integrity in an
open world.

The acceptance tests of the open-population PR: with churn, bounded
staleness and faults all on, (a) serial and process executors
stay bit-identical, (b) a run killed mid-flight — with uploads parked
in the staleness buffer and churn state mid-stream — resumes exactly,
and (c) a corrupted checkpoint is detected by its checksum and the
runner falls back to the rotated ``.prev`` copy.
"""

import json

import numpy as np
import pytest

from repro.core.mach import MACHSampler
from repro.faults import CheckpointIntegrityError, TrainerCheckpoint
from repro.hfl.telemetry import TelemetryRecorder
from repro.runtime import EXECUTOR_KINDS
from repro.sampling import UniformSampler

from tests.faults.test_checkpoint import assert_checkpoints_equal
from tests.faults.test_degradation import build_trainer
from tests.state_equal import assert_state_equal

#: Everything on at once: seeded churn, a straggler deadline low enough
#: to park uploads in the small test workload, and a staleness window
#: wide enough for multi-step ages.
OPEN_WORLD = dict(
    churn_profile="moderate",
    max_staleness=3,
    fault_profile="moderate,deadline=1.5",
)


def assert_open_world_checkpoints_equal(a, b):
    """The v1/v2 field comparison plus the v3 open-population fields."""
    assert_checkpoints_equal(a, b)
    assert_state_equal(a.churn_state, b.churn_state)
    assert a.robustness_counters == b.robustness_counters
    assert len(a.stale_buffer) == len(b.stale_buffer)
    for x, y in zip(a.stale_buffer, b.stale_buffer):
        assert set(x) == set(y)
        for key in x:
            if key == "delta":
                np.testing.assert_array_equal(x[key], y[key])
            else:
                assert x[key] == y[key]


class TestExecutorParityOpenWorld:
    def run_with_executor(self, kind, num_steps=8):
        telemetry = TelemetryRecorder()
        with build_trainer(
            MACHSampler(), telemetry=telemetry,
            executor=kind, num_workers=2, **OPEN_WORLD,
        ) as trainer:
            result = trainer.run(num_steps=num_steps)
        edge_models = [edge.model.copy() for edge in trainer.edges]
        return result, edge_models, trainer.cloud.model.copy(), telemetry

    def test_executors_bit_identical_under_churn_and_staleness(self):
        baseline = self.run_with_executor("serial")
        base_result, base_edges, base_cloud, base_telemetry = baseline
        # The open world must actually be open for this parity test to
        # mean anything: churn transitions happened and at least one
        # upload went through the staleness buffer.
        assert base_result.devices_joined + base_result.devices_left > 0
        assert base_result.late_admits + base_result.late_drops > 0
        assert np.all(np.isfinite(base_result.history.accuracy))
        assert np.all(np.isfinite(base_result.history.loss))

        for kind in EXECUTOR_KINDS:
            if kind == "serial":
                continue
            result, edges, cloud, telemetry = self.run_with_executor(kind)
            assert result.history.steps == base_result.history.steps
            assert result.history.accuracy == base_result.history.accuracy
            assert result.history.loss == base_result.history.loss
            np.testing.assert_array_equal(
                result.participation_counts, base_result.participation_counts
            )
            assert result.devices_joined == base_result.devices_joined
            assert result.devices_left == base_result.devices_left
            assert result.late_admits == base_result.late_admits
            assert result.late_drops == base_result.late_drops
            assert (
                result.simulated_backoff_seconds
                == base_result.simulated_backoff_seconds
            )
            for a, b in zip(edges, base_edges):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(cloud, base_cloud)
            assert telemetry.state_dict() == base_telemetry.state_dict()


class TestKillAndResumeOpenWorld:
    def test_resume_matches_uninterrupted(self, tmp_path):
        """Killed at step 4 of 12 with churn mid-stream and uploads
        parked in the staleness buffer — exact replay on resume."""
        num_steps, kill_at, eval_interval = 12, 4, 2
        path = str(tmp_path / "ckpt.json")

        telemetry_full = TelemetryRecorder()
        with build_trainer(
            MACHSampler(), telemetry=telemetry_full,
            eval_interval=eval_interval, **OPEN_WORLD,
        ) as full_trainer:
            full = full_trainer.run(num_steps=num_steps)

        telemetry_killed = TelemetryRecorder()
        with build_trainer(
            MACHSampler(), telemetry=telemetry_killed,
            eval_interval=eval_interval,
            checkpoint_every=kill_at, checkpoint_path=path, **OPEN_WORLD,
        ) as killed:
            killed.run(num_steps=kill_at)

        # The checkpoint must carry the open-population state for this
        # to be a meaningful resume test.
        saved = TrainerCheckpoint.load(path)
        assert saved.churn_state is not None
        assert saved.stale_buffer, (
            "the kill point must land with uploads parked in the "
            "staleness buffer"
        )

        telemetry_resumed = TelemetryRecorder()
        with build_trainer(
            MACHSampler(), telemetry=telemetry_resumed,
            eval_interval=eval_interval, **OPEN_WORLD,
        ) as resumed_trainer:
            resumed = resumed_trainer.run(
                num_steps=num_steps, resume_from=path
            )

        assert full.history.steps == resumed.history.steps
        assert full.history.accuracy == resumed.history.accuracy
        assert full.history.loss == resumed.history.loss
        np.testing.assert_array_equal(
            full.participation_counts, resumed.participation_counts
        )
        assert full.devices_joined == resumed.devices_joined
        assert full.devices_left == resumed.devices_left
        assert full.late_admits == resumed.late_admits
        assert full.late_drops == resumed.late_drops
        assert (
            full.simulated_backoff_seconds == resumed.simulated_backoff_seconds
        )
        for a, b in zip(full_trainer.edges, resumed_trainer.edges):
            np.testing.assert_array_equal(a.model, b.model)
        np.testing.assert_array_equal(
            full_trainer.cloud.model, resumed_trainer.cloud.model
        )
        assert_state_equal(
            full_trainer.sampler.state_dict(),
            resumed_trainer.sampler.state_dict(),
        )
        assert telemetry_full.state_dict() == telemetry_resumed.state_dict()
        # The strongest form: the end-of-run snapshots agree field by
        # field, including churn state and the staleness buffer.
        assert_open_world_checkpoints_equal(
            full_trainer.make_checkpoint(num_steps),
            resumed_trainer.make_checkpoint(num_steps),
        )

    def test_restore_rejects_churn_mismatch(self, tmp_path):
        """A closed-world trainer must not silently resume an
        open-world checkpoint (or vice versa)."""
        open_trainer = build_trainer(
            UniformSampler(), churn_profile="moderate"
        )
        open_trainer.run(num_steps=4)
        checkpoint = open_trainer.make_checkpoint(4)
        closed = build_trainer(UniformSampler())
        with pytest.raises(ValueError, match="churn"):
            closed.restore_checkpoint(checkpoint)

        closed_checkpoint = build_trainer(UniformSampler()).make_checkpoint(0)
        fresh_open = build_trainer(
            UniformSampler(), churn_profile="moderate"
        )
        with pytest.raises(ValueError, match="churn"):
            fresh_open.restore_checkpoint(closed_checkpoint)


class TestCheckpointIntegrity:
    def write_checkpoint(self, tmp_path, steps=4):
        trainer = build_trainer(UniformSampler())
        trainer.run(num_steps=steps)
        checkpoint = trainer.make_checkpoint(steps)
        path = tmp_path / "ckpt.json"
        checkpoint.save(path)
        return checkpoint, path

    def test_truncated_file_names_the_checkpoint(self, tmp_path):
        _, path = self.write_checkpoint(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(
            CheckpointIntegrityError, match="truncated or not valid JSON"
        ) as excinfo:
            TrainerCheckpoint.load(path)
        assert str(path) in str(excinfo.value)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(
            CheckpointIntegrityError, match="not a checkpoint object"
        ):
            TrainerCheckpoint.load(path)

    def test_tampered_payload_fails_its_checksum(self, tmp_path):
        """A single flipped value that still parses as JSON — the
        failure mode an atomic rename cannot catch."""
        _, path = self.write_checkpoint(tmp_path)
        payload = json.loads(path.read_text())
        payload["total_participants"] = int(payload["total_participants"]) + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointIntegrityError, match="SHA-256"):
            TrainerCheckpoint.load(path)

    def test_save_rotates_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"
        trainer = build_trainer(UniformSampler())
        trainer.run(num_steps=2)
        first = trainer.make_checkpoint(2)
        first.save(path)
        trainer.run(num_steps=4, resume_from=first)
        trainer.make_checkpoint(4).save(path)
        prev = TrainerCheckpoint.previous_path(path)
        assert prev.exists()
        assert TrainerCheckpoint.load(prev).step == 2
        assert TrainerCheckpoint.load(path).step == 4

    def test_fallback_recovers_from_corrupted_primary(self, tmp_path):
        path = tmp_path / "ckpt.json"
        trainer = build_trainer(UniformSampler(), checkpoint_every=2,
                                checkpoint_path=str(path))
        trainer.run(num_steps=4)  # writes at steps 2 and 4
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        loaded, used = TrainerCheckpoint.load_with_fallback(path)
        assert used == TrainerCheckpoint.previous_path(path)
        assert loaded.step == 2

    def test_fallback_recovers_from_missing_primary(self, tmp_path):
        path = tmp_path / "ckpt.json"
        trainer = build_trainer(UniformSampler(), checkpoint_every=2,
                                checkpoint_path=str(path))
        trainer.run(num_steps=4)
        path.unlink()
        loaded, used = TrainerCheckpoint.load_with_fallback(path)
        assert used == TrainerCheckpoint.previous_path(path)
        assert loaded.step == 2

    def test_fallback_propagates_primary_error_when_both_bad(self, tmp_path):
        _, path = self.write_checkpoint(tmp_path)
        prev = TrainerCheckpoint.previous_path(path)
        prev.write_text("{not json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointIntegrityError) as excinfo:
            TrainerCheckpoint.load_with_fallback(path)
        # The error names the file the caller asked for, not the .prev.
        assert str(path) in str(excinfo.value)


class TestRunnerResumeFallback:
    def test_cli_falls_back_to_rotated_copy(self, tmp_path, capsys):
        """End to end through the CLI: a corrupted primary checkpoint
        resumes from the rotated ``.prev`` with a warning."""
        from repro.experiments.runner import main

        path = tmp_path / "run-ckpt.json"
        base_args = [
            "--preset", "blobs-bench", "--sampler", "uniform",
            "--steps", "8", "--seed", "3",
        ]
        rc = main(["run"] + base_args + [
            "--checkpoint-every", "4", "--checkpoint-path", str(path),
            "--quiet",
        ])
        assert rc == 0
        assert TrainerCheckpoint.previous_path(path).exists()

        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        capsys.readouterr()  # drop output from the first run
        rc = main(["resume", str(path)] + base_args)
        assert rc == 0
        out = capsys.readouterr().out
        assert "resuming from the rotated copy" in out
