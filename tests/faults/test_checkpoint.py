"""Checkpoint/resume: exact replay of a killed run.

The acceptance criterion of the robustness PR: under a fixed seed and
fault profile, a run killed at step ``k`` and resumed from its
checkpoint matches an uninterrupted run exactly — bit-identical
history, models, sampler state and telemetry.
"""

import json

import numpy as np
import pytest

from repro.core.mach import MACHSampler
from repro.faults import (
    CHECKPOINT_VERSION,
    CheckpointIntegrityError,
    CheckpointMismatchError,
    TrainerCheckpoint,
)
from repro.faults.checkpoint import _payload_checksum
from repro.hfl.config import HFLConfig
from repro.hfl.telemetry import TelemetryRecorder
from repro.sampling import UniformSampler
from repro.utils.serialization import from_jsonable

from tests.core.test_experience import scalar_rows
from tests.faults.test_degradation import build_trainer
from tests.state_equal import assert_state_equal


def assert_checkpoints_equal(a: TrainerCheckpoint, b: TrainerCheckpoint):
    assert a.step == b.step
    assert a.identity == b.identity
    assert len(a.edge_models) == len(b.edge_models)
    for x, y in zip(a.edge_models, b.edge_models):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.cloud_model, b.cloud_model)
    for x, y in zip(a.last_synced_edge_models, b.last_synced_edge_models):
        np.testing.assert_array_equal(x, y)
    assert_state_equal(a.sampler_state, b.sampler_state)
    assert a.history_steps == b.history_steps
    assert a.history_accuracy == b.history_accuracy
    assert a.history_loss == b.history_loss
    np.testing.assert_array_equal(a.participation_counts, b.participation_counts)
    assert a.total_participants == b.total_participants
    assert a.reached_target_at == b.reached_target_at
    assert a.telemetry_state == b.telemetry_state


def v3_payload(payload):
    """Rewrite a v4 payload in the v3 layout, re-signed.

    v3 stored each array as ``{"dtype": name, "data": decimal list}``
    and the MACH tracker as one dict per device.
    """
    def legacy(value):
        if isinstance(value, dict):
            if "__ndarray__" in value:
                array = from_jsonable(value)
                return {"__ndarray__": {"dtype": str(array.dtype),
                                        "data": array.tolist()}}
            return {k: legacy(v) for k, v in value.items()}
        if isinstance(value, list):
            return [legacy(v) for v in value]
        return value

    old = legacy(payload)
    tracker = from_jsonable(payload["sampler_state"].get("tracker"))
    if tracker is not None:
        old["sampler_state"]["tracker"] = {
            "window": tracker["window"],
            "devices": {
                str(m): row for m, row in enumerate(scalar_rows(tracker))
            },
        }
    old["version"] = 3
    old["payload_sha256"] = _payload_checksum(old)
    return old


class TestCheckpointRoundTrip:
    def test_dict_round_trip_is_exact(self):
        trainer = build_trainer(MACHSampler(), fault_profile="moderate")
        trainer.run(num_steps=6)
        checkpoint = trainer.make_checkpoint(6)
        rebuilt = TrainerCheckpoint.from_dict(checkpoint.to_dict())
        assert_checkpoints_equal(checkpoint, rebuilt)

    def test_file_round_trip_is_exact(self, tmp_path):
        telemetry = TelemetryRecorder()
        trainer = build_trainer(
            MACHSampler(), telemetry=telemetry, fault_profile="severe",
        )
        trainer.run(num_steps=6)
        checkpoint = trainer.make_checkpoint(6)
        path = checkpoint.save(tmp_path / "ckpt.json")
        assert_checkpoints_equal(checkpoint, TrainerCheckpoint.load(path))
        # No stray temp file left behind by the atomic write.
        assert list(tmp_path.iterdir()) == [path]

    def test_inf_sampler_state_survives_json(self, tmp_path):
        """MACH UCB estimates are infinite for never-sampled devices;
        they must survive the JSON round trip."""
        trainer = build_trainer(MACHSampler(), num_devices=20)
        trainer.run(num_steps=2)
        checkpoint = trainer.make_checkpoint(2)
        tracker = checkpoint.sampler_state["tracker"]
        never_tried = tracker["has_estimate"] & np.isinf(tracker["estimate"])
        assert never_tried.any(), (
            "expected at least one never-sampled device with an inf estimate"
        )
        loaded = TrainerCheckpoint.load(checkpoint.save(tmp_path / "c.json"))
        restored = loaded.sampler_state["tracker"]
        for column in ("estimate", "has_estimate"):
            assert np.array_equal(restored[column], tracker[column])
        assert np.isinf(restored["estimate"][never_tried]).all()
        assert restored["has_estimate"][never_tried].all()
        assert_state_equal(loaded.sampler_state, checkpoint.sampler_state)

    def test_load_rejects_bad_payloads(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TrainerCheckpoint.load(tmp_path / "missing.json")
        with pytest.raises(ValueError, match="missing keys"):
            TrainerCheckpoint.from_dict({"step": 3})
        trainer = build_trainer(UniformSampler())
        payload = trainer.make_checkpoint(0).to_dict()
        payload["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            TrainerCheckpoint.from_dict(payload)

    def test_topology_fingerprint_round_trips(self):
        trainer = build_trainer(UniformSampler(), topology="gossip",
                                gossip_degree=2)
        trainer.run(num_steps=6)
        checkpoint = trainer.make_checkpoint(6)
        assert checkpoint.identity["topology"] == "gossip"
        assert checkpoint.identity["aggregation_strategy"] == "gossip_avg"
        assert checkpoint.topology_state["degree"] == 2
        rebuilt = TrainerCheckpoint.from_dict(checkpoint.to_dict())
        assert rebuilt.identity == checkpoint.identity
        assert rebuilt.topology_state == checkpoint.topology_state

    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_checkpoint_versions_rejected(self, version):
        """Pre-v3 layouts (no open-population fields, no checksum) are
        refused by name rather than loaded with guessed defaults."""
        trainer = build_trainer(UniformSampler())
        trainer.run(num_steps=4)
        payload = trainer.make_checkpoint(4).to_dict()
        for key in ("churn_state", "stale_buffer", "robustness_counters",
                    "payload_sha256"):
            del payload[key]
        payload["version"] = version
        with pytest.raises(
            ValueError, match=f"unsupported checkpoint version {version}"
        ):
            TrainerCheckpoint.from_dict(payload)

    def test_v3_checkpoint_rejected(self, tmp_path):
        """A v3 file (decimal-list arrays, one dict per device) with a
        valid checksum fails by its version: there is no v3 reader, and
        the failure is not an integrity error, so ``load_with_fallback``
        does not hide it behind an older rotated copy."""
        trainer = build_trainer(MACHSampler())
        trainer.run(num_steps=4)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(v3_payload(trainer.make_checkpoint(4).to_dict())))
        for load in (TrainerCheckpoint.load, TrainerCheckpoint.load_with_fallback):
            with pytest.raises(
                ValueError, match="unsupported checkpoint version 3"
            ) as excinfo:
                load(path)
            assert not isinstance(excinfo.value, CheckpointIntegrityError)

    def test_v4_checkpoint_rejected(self):
        """A v4 payload (seed, sampler, topology and aggregation fields
        where v5 has the identity record) with a valid checksum fails by
        its version, as v3 does, not by its missing record."""
        payload = build_trainer(UniformSampler()).make_checkpoint(0).to_dict()
        identity = payload.pop("identity")
        payload.update(
            version=4,
            master_seed=identity["seed"],
            sampler_name=identity["sampler"],
            topology_name=identity["topology"],
            aggregation_name=identity["aggregation_strategy"],
        )
        payload["payload_sha256"] = _payload_checksum(payload)
        with pytest.raises(
            ValueError, match="unsupported checkpoint version 4"
        ) as excinfo:
            TrainerCheckpoint.from_dict(payload)
        assert not isinstance(excinfo.value, CheckpointIntegrityError)

    def test_save_writes_the_canonical_text_once(self, tmp_path):
        """The file is the canonical JSON its checksum covers, with the
        checksum appended: one encode, same checksum as ``to_dict``."""
        trainer = build_trainer(MACHSampler())
        trainer.run(num_steps=4)
        checkpoint = trainer.make_checkpoint(4)
        text = checkpoint.save(tmp_path / "ckpt.json").read_text()
        payload = checkpoint.to_dict()
        assert json.loads(text) == payload
        body = {k: v for k, v in payload.items() if k != "payload_sha256"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert text == (
            f'{canonical[:-1]},"payload_sha256":"{payload["payload_sha256"]}"}}'
        )

    def test_checksum_and_version_are_required(self):
        trainer = build_trainer(UniformSampler())
        trainer.run(num_steps=4)
        payload = trainer.make_checkpoint(4).to_dict()
        # An edited payload with its checksum stripped must not load.
        unchecked = dict(payload, step=99)
        del unchecked["payload_sha256"]
        with pytest.raises(CheckpointIntegrityError, match="no payload_sha256"):
            TrainerCheckpoint.from_dict(unchecked)
        unversioned = dict(payload)
        del unversioned["version"]
        with pytest.raises(ValueError, match=r"missing keys: \['version'\]"):
            TrainerCheckpoint.from_dict(unversioned)


class TestKillAndResume:
    def run_pair(self, make_sampler, tmp_path, fault_profile, num_steps=12,
                 kill_at=4, eval_interval=2):
        """An uninterrupted run vs a killed-and-resumed run.

        ``kill_at`` must be a multiple of ``eval_interval``: the killed
        trainer runs exactly ``kill_at`` steps, and a run's final step
        always evaluates, so an unaligned kill point would bake an eval
        into the checkpoint that the uninterrupted run never takes.
        """
        assert kill_at % eval_interval == 0
        path = str(tmp_path / "ckpt.json")
        telemetry_full = TelemetryRecorder()
        with build_trainer(
            make_sampler(), telemetry=telemetry_full,
            fault_profile=fault_profile, eval_interval=eval_interval,
        ) as full_trainer:
            full = full_trainer.run(num_steps=num_steps)

        # "Kill" at step k: a fresh trainer runs only k steps, writing
        # its checkpoint at the kill point...
        telemetry_killed = TelemetryRecorder()
        with build_trainer(
            make_sampler(), telemetry=telemetry_killed,
            fault_profile=fault_profile, eval_interval=eval_interval,
            checkpoint_every=kill_at, checkpoint_path=path,
        ) as killed:
            killed.run(num_steps=kill_at)

        # ...and a third trainer resumes from the file.
        telemetry_resumed = TelemetryRecorder()
        with build_trainer(
            make_sampler(), telemetry=telemetry_resumed,
            fault_profile=fault_profile, eval_interval=eval_interval,
        ) as resumed_trainer:
            resumed = resumed_trainer.run(num_steps=num_steps, resume_from=path)

        return (full, full_trainer, telemetry_full,
                resumed, resumed_trainer, telemetry_resumed)

    def assert_runs_identical(self, pair):
        full, full_trainer, tel_full, resumed, resumed_trainer, tel_res = pair
        # Bit-identical histories (exact float equality, not allclose).
        assert full.history.steps == resumed.history.steps
        assert full.history.accuracy == resumed.history.accuracy
        assert full.history.loss == resumed.history.loss
        assert full.steps_run == resumed.steps_run
        assert full.mean_participants_per_step == resumed.mean_participants_per_step
        np.testing.assert_array_equal(
            full.participation_counts, resumed.participation_counts
        )
        # Bit-identical final models and sampler state.
        for a, b in zip(full_trainer.edges, resumed_trainer.edges):
            np.testing.assert_array_equal(a.model, b.model)
        np.testing.assert_array_equal(
            full_trainer.cloud.model, resumed_trainer.cloud.model
        )
        assert_state_equal(
            full_trainer.sampler.state_dict(),
            resumed_trainer.sampler.state_dict(),
        )
        # The telemetry stream replays exactly too.
        assert tel_full.state_dict() == tel_res.state_dict()

    def test_resume_matches_uninterrupted_fault_free(self, tmp_path):
        self.assert_runs_identical(
            self.run_pair(UniformSampler, tmp_path, fault_profile=None)
        )

    def test_resume_matches_uninterrupted_under_severe_faults(self, tmp_path):
        """The headline acceptance test: MACH + every fault type on,
        killed at step 4 of 12, resumed — exact replay."""
        self.assert_runs_identical(
            self.run_pair(MACHSampler, tmp_path, fault_profile="severe")
        )

    def test_resume_at_unaligned_kill_point(self, tmp_path):
        """Kill between sync steps (k=3 with T_g=5) — resume must still
        replay exactly."""
        self.assert_runs_identical(
            self.run_pair(
                MACHSampler, tmp_path, fault_profile="moderate",
                kill_at=3, eval_interval=1,
            )
        )


class TestRestoreValidation:
    def test_rejects_seed_mismatch(self):
        source = build_trainer(UniformSampler(), seed=0)
        checkpoint = source.make_checkpoint(0)
        target = build_trainer(UniformSampler(), seed=1)
        with pytest.raises(ValueError, match="seed"):
            target.restore_checkpoint(checkpoint)

    def test_rejects_sampler_mismatch(self):
        source = build_trainer(UniformSampler())
        checkpoint = source.make_checkpoint(0)
        target = build_trainer(MACHSampler())
        with pytest.raises(ValueError, match="sampler"):
            target.restore_checkpoint(checkpoint)

    def test_rejects_edge_count_mismatch(self):
        source = build_trainer(UniformSampler(), num_edges=3)
        checkpoint = source.make_checkpoint(0)
        target = build_trainer(UniformSampler(), num_edges=2)
        with pytest.raises(ValueError, match="edges"):
            target.restore_checkpoint(checkpoint)

    def test_rejects_other_data_of_the_same_shape(self):
        """Same configuration, same shapes, other samples: the data
        fingerprint in the identity record refuses the resume."""
        checkpoint = build_trainer(UniformSampler()).make_checkpoint(0)
        target = build_trainer(UniformSampler(), data_seed=1)
        assert target.cloud.model.shape == checkpoint.cloud_model.shape
        with pytest.raises(CheckpointMismatchError) as excinfo:
            target.restore_checkpoint(checkpoint)
        assert excinfo.value.field == "data"

    def test_rejects_exhausted_checkpoint(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        trainer = build_trainer(
            UniformSampler(), checkpoint_every=4, checkpoint_path=path,
        )
        trainer.run(num_steps=4)
        fresh = build_trainer(UniformSampler())
        with pytest.raises(ValueError, match="nothing left"):
            fresh.run(num_steps=4, resume_from=path)

    def test_config_requires_path_with_interval(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            HFLConfig(checkpoint_every=5)
        with pytest.raises(ValueError):
            HFLConfig(checkpoint_every=0, checkpoint_path="x.json")
