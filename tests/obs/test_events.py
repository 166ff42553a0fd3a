"""Event log: manifest, emission, parsing, telemetry reconstruction."""

import io
import json
import subprocess
from pathlib import Path

import pytest

from repro.core.mach import MACHSampler
from repro.hfl.telemetry import TelemetryRecorder
from repro.obs import (
    EventLog,
    Observability,
    build_manifest,
    read_events,
    replay_telemetry,
)
from repro.obs import events as events_module

from tests.obs.conftest import build_obs_trainer


class TestEventLog:
    def test_path_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "nested" / "run.jsonl"
        with EventLog(path) as log:
            log.emit("round", t=0, edge=1)
            log.emit("eval", step=5, accuracy=0.5)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["type"] for line in lines] == ["round", "eval"]
        assert log.num_events == 2

    def test_stream_sink_is_not_closed(self):
        stream = io.StringIO()
        log = EventLog(stream)
        log.emit("x")
        log.close()
        assert not stream.closed
        assert json.loads(stream.getvalue())["type"] == "x"

    def test_emit_after_close_rejected(self):
        log = EventLog(io.StringIO())
        log.close()
        with pytest.raises(RuntimeError, match="closed"):
            log.emit("x")
        log.close()  # idempotent

    def test_flush_every_batches_writes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = EventLog(path, flush_every=100)
        log.emit("a")
        # Unflushed: the OS buffer may hold the line.
        log.flush()
        assert path.read_text().strip()
        log.close()

    def test_bad_flush_every_rejected(self):
        with pytest.raises(ValueError, match="flush_every"):
            EventLog(io.StringIO(), flush_every=0)


class TestManifest:
    def test_core_fields(self):
        manifest = build_manifest(
            seed=7,
            sampler="mach",
            num_steps=40,
            config={"num_devices": 10},
            fault_profile={"name": "seeded"},
            extra={"preset": "blobs-bench"},
        )
        assert manifest["seed"] == 7
        assert manifest["sampler"] == "mach"
        assert manifest["num_steps"] == 40
        assert manifest["config"] == {"num_devices": 10}
        assert manifest["fault_profile"] == {"name": "seeded"}
        assert manifest["preset"] == "blobs-bench"
        assert "repro_version" in manifest
        assert set(manifest["host"]) == {"platform", "python", "numpy"}
        json.dumps(manifest)  # fully JSON-serializable

    def test_git_revision_inside_a_checkout(self):
        events_dir = Path(events_module.__file__).resolve().parent
        try:
            head = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5, cwd=events_dir,
            )
        except OSError:
            pytest.skip("git is not installed")
        if head.returncode != 0:
            pytest.skip("the source tree is not a git checkout")
        manifest = build_manifest(seed=0, sampler="u", num_steps=1)
        assert manifest["git_revision"] == head.stdout.strip()

    def test_git_revision_outside_a_checkout_is_none(self, tmp_path, monkeypatch):
        # _git_revision asks git about the directory of events.py.
        monkeypatch.setattr(events_module, "__file__", str(tmp_path / "events.py"))
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        manifest = build_manifest(seed=0, sampler="u", num_steps=1)
        assert manifest["git_revision"] is None

    def test_is_first_line_of_the_log(self):
        stream = io.StringIO()
        log = EventLog(stream)
        log.write_manifest(build_manifest(seed=0, sampler="u", num_steps=1))
        log.emit("round", t=0, edge=0)
        first = json.loads(stream.getvalue().splitlines()[0])
        assert first["type"] == "manifest"


class TestReadEvents:
    def test_parses_path_and_iterable(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type":"a"}\n\n{"type":"b"}\n')
        assert [e["type"] for e in read_events(path)] == ["a", "b"]
        assert [e["type"] for e in read_events(['{"type":"a"}'])] == ["a"]

    def test_tolerates_torn_final_line_only(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type":"a"}\n{"type":"b"')
        assert [e["type"] for e in read_events(path)] == ["a"]
        path.write_text('{"type":"a"\n{"type":"b"}\n')
        with pytest.raises(json.JSONDecodeError):
            read_events(path)


class TestReplayTelemetry:
    def run_logged(self, fault_profile=None, steps=10):
        stream = io.StringIO()
        obs = Observability.enabled(events=EventLog(stream))
        telemetry = TelemetryRecorder()
        trainer = build_obs_trainer(
            MACHSampler(),
            telemetry=telemetry,
            obs=obs,
            fault_profile=fault_profile,
        )
        with trainer:
            trainer.run(num_steps=steps)
        obs.close()
        return telemetry, read_events(stream.getvalue().splitlines())

    def test_reconstruction_equals_in_memory_recorder(self):
        telemetry, events = self.run_logged()
        rebuilt = replay_telemetry(events)
        assert rebuilt.state_dict() == telemetry.state_dict()
        assert rebuilt.jain_fairness() == telemetry.jain_fairness()
        assert rebuilt.mean_prob_spread() == telemetry.mean_prob_spread()
        assert rebuilt.edge_load() == telemetry.edge_load()

    def test_reconstruction_exact_under_faults(self):
        telemetry, events = self.run_logged(fault_profile="severe", steps=12)
        assert telemetry.fault_summary(), "severe profile must inject faults"
        rebuilt = replay_telemetry(events)
        assert rebuilt.state_dict() == telemetry.state_dict()
        assert rebuilt.fault_summary() == telemetry.fault_summary()
        assert rebuilt.lost_round_count() == telemetry.lost_round_count()
        assert rebuilt.stale_sync_count() == telemetry.stale_sync_count()
        assert (
            rebuilt.simulated_backoff_seconds()
            == telemetry.simulated_backoff_seconds()
        )

    def test_phase_times_stay_empty_after_replay(self):
        telemetry, events = self.run_logged()
        assert telemetry.phase_seconds  # the live run measured phases
        assert replay_telemetry(events).phase_summary() == {}

    def test_run_lifecycle_events_present(self):
        _telemetry, events = self.run_logged()
        types = [e["type"] for e in events]
        assert types.count("run_start") == 1
        assert types.count("run_end") == 1
        assert "round" in types and "sampling" in types and "eval" in types
        end = next(e for e in events if e["type"] == "run_end")
        assert end["steps_run"] == 10
