"""Observability end-to-end: bit-identity, spans, resume, runner CLI.

The acceptance contract of ``repro.obs``: sinks observe, never
participate.  An obs-enabled run must equal an obs-disabled one bit for
bit on every executor backend, and kill/resume replay must stay exact
with all sinks attached.
"""

import io
import json

import numpy as np
import pytest

from repro.core.mach import MACHSampler
from repro.experiments import runner
from repro.obs import EventLog, Observability, Profiler
from repro.runtime import EXECUTOR_KINDS

from tests.obs.conftest import build_obs_trainer
from tests.state_equal import assert_state_equal


def run_once(obs=None, seed=0, steps=8, **overrides):
    trainer = build_obs_trainer(MACHSampler(), seed=seed, obs=obs, **overrides)
    with trainer:
        result = trainer.run(num_steps=steps)
    edges = [edge.model.copy() for edge in trainer.edges]
    return result, edges, trainer.cloud.model.copy(), trainer.sampler.state_dict()


def assert_bit_identical(a, b):
    result_a, edges_a, cloud_a, sampler_a = a
    result_b, edges_b, cloud_b, sampler_b = b
    assert result_a.history.steps == result_b.history.steps
    assert result_a.history.accuracy == result_b.history.accuracy
    assert result_a.history.loss == result_b.history.loss
    np.testing.assert_array_equal(
        result_a.participation_counts, result_b.participation_counts
    )
    for x, y in zip(edges_a, edges_b):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(cloud_a, cloud_b)
    assert_state_equal(sampler_a, sampler_b)


class TestBitIdentity:
    @pytest.mark.parametrize("executor", EXECUTOR_KINDS)
    def test_obs_on_equals_obs_off(self, executor):
        kwargs = {"executor": executor, "num_workers": 2}
        baseline = run_once(obs=None, **kwargs)
        obs = Observability.enabled(events=EventLog(io.StringIO()))
        observed = run_once(obs=obs, **kwargs)
        assert_bit_identical(baseline, observed)
        assert obs.events.num_events > 0
        assert obs.tracer.spans
        assert obs.audit.decisions

    @pytest.mark.parametrize("executor", EXECUTOR_KINDS)
    def test_profiler_on_equals_obs_off(self, executor):
        kwargs = {"executor": executor, "num_workers": 2}
        baseline = run_once(obs=None, **kwargs)
        profiler = Profiler()
        observed = run_once(obs=Observability(profiler=profiler), **kwargs)
        assert_bit_identical(baseline, observed)
        assert profiler.hotspot_table()

    def test_obs_on_under_faults_equals_obs_off(self):
        kwargs = {"fault_profile": "severe", "steps": 10}
        baseline = run_once(obs=None, **kwargs)
        observed = run_once(obs=Observability.enabled(), **kwargs)
        assert_bit_identical(baseline, observed)


class TestSpanHierarchy:
    @pytest.mark.parametrize("executor", EXECUTOR_KINDS)
    def test_cloud_step_edge_round_device_update(self, executor):
        obs = Observability.enabled()
        run_once(obs=obs, steps=4, executor=executor, num_workers=2)
        tracer = obs.tracer
        steps = [s for s in tracer.spans if s.name == "cloud_step"]
        assert [s.attrs["t"] for s in steps] == [0, 1, 2, 3]
        executes = [s for s in tracer.spans if s.name == "execute"]
        assert len(executes) == 4
        # Every execute phase hangs off its cloud_step...
        step_ids = {s.span_id for s in steps}
        assert all(s.parent_id in step_ids for s in executes)
        # ...and edge_round / device_update attribute the worker time.
        edge_rounds = [s for s in tracer.spans if s.name == "edge_round"]
        assert edge_rounds
        execute_ids = {s.span_id for s in executes}
        for edge_span in edge_rounds:
            assert edge_span.parent_id in execute_ids
            assert edge_span.synthesized
            devices = tracer.children_of(edge_span.span_id)
            assert len(devices) == edge_span.attrs["devices"]
            for device_span in devices:
                assert device_span.name == "device_update"
                assert "worker" in device_span.attrs
                assert device_span.duration >= 0

    def test_worker_attribution_uses_pool_processes(self):
        obs = Observability.enabled()
        run_once(obs=obs, steps=3, executor="process", num_workers=2)
        workers = {
            s.attrs["worker"]
            for s in obs.tracer.spans
            if s.name == "device_update"
        }
        assert workers
        assert not workers & {"main", "MainProcess"}

    def test_no_spans_without_tracer(self):
        obs = Observability(events=EventLog(io.StringIO()))
        run_once(obs=obs, steps=2)
        assert not obs.tracer.enabled
        assert obs.tracer.spans == []
        assert obs.events.num_events > 0


class TestKillAndResumeWithObs:
    def test_resume_with_obs_matches_uninterrupted_without(self, tmp_path):
        """Kill at step 4 of 12 with every sink attached; the resumed
        run (also fully observed) must equal an unobserved full run."""
        path = str(tmp_path / "ckpt.json")
        baseline = run_once(obs=None, steps=12, eval_interval=2)

        killed_obs = Observability.enabled(
            events=EventLog(tmp_path / "killed.jsonl")
        )
        run_once(
            obs=killed_obs, steps=4, eval_interval=2,
            checkpoint_every=4, checkpoint_path=path,
        )
        killed_obs.close()
        checkpoint_events = [
            json.loads(line)
            for line in (tmp_path / "killed.jsonl").read_text().splitlines()
            if json.loads(line)["type"] == "checkpoint"
        ]
        assert [e["step"] for e in checkpoint_events] == [4]

        resumed_obs = Observability.enabled()
        trainer = build_obs_trainer(
            MACHSampler(), seed=0, obs=resumed_obs, eval_interval=2,
        )
        with trainer:
            resumed = trainer.run(num_steps=12, resume_from=path)
        resumed_pack = (
            resumed,
            [edge.model.copy() for edge in trainer.edges],
            trainer.cloud.model.copy(),
            trainer.sampler.state_dict(),
        )
        assert_bit_identical(baseline, resumed_pack)
        # The resumed half of the audit trail still replays exactly.
        assert resumed_obs.audit.verify_replay(0) is True


class TestRunnerCLI:
    def run_cli(self, tmp_path, *extra):
        argv = [
            "run", "--preset", "blobs-bench", "--steps", "4", "--quiet", *extra,
        ]
        assert runner.main([str(a) for a in argv]) == 0

    def test_quiet_silences_everything(self, tmp_path, capsys):
        self.run_cli(tmp_path)
        assert capsys.readouterr().out == ""

    def test_obs_flags_write_all_sinks(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        self.run_cli(
            tmp_path,
            "--log-jsonl", log, "--trace-out", trace, "--metrics-out", metrics,
        )
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events[0]["type"] == "manifest"
        assert events[0]["preset"] == "blobs-bench"
        assert events[0]["config"]["num_devices"] > 0
        types = {e["type"] for e in events}
        assert {"run_start", "sampling", "round", "eval", "run_end"} <= types
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert {"cloud_step", "execute", "device_update"} <= {
            s["name"] for s in spans
        }
        exported = json.loads(metrics.read_text())
        assert exported["repro_steps_total"]["values"][0]["value"] == 4.0
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE repro_steps_total counter" in prom
        assert capsys.readouterr().out == ""

    def test_manifest_records_fault_profile(self, tmp_path):
        log = tmp_path / "run.jsonl"
        self.run_cli(
            tmp_path, "--log-jsonl", log, "--fault-profile", "dropout=0.2",
        )
        manifest = json.loads(log.read_text().splitlines()[0])
        assert manifest["fault_profile"]["name"] == "seeded"
        assert manifest["fault_profile"]["profile"]["dropout_rate"] == 0.2

    def test_log_level_and_quiet_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(
                ["run", "--preset", "blobs-bench", "--quiet",
                 "--log-level", "debug"]
            )

    def test_cli_run_is_bit_identical_with_and_without_obs(self, tmp_path, capsys):
        """The same CLI invocation with sinks on and off prints the
        same summary line — accuracy, participants, everything."""
        argv = ["run", "--preset", "blobs-bench", "--steps", "4"]
        assert runner.main(argv) == 0
        plain = capsys.readouterr().out.splitlines()[1]
        assert (
            runner.main(
                argv + ["--log-jsonl", str(tmp_path / "r.jsonl"),
                        "--trace-out", str(tmp_path / "t.jsonl"),
                        "--metrics-out", str(tmp_path / "m.json")]
            )
            == 0
        )
        observed = capsys.readouterr().out.splitlines()[1]
        assert observed == plain
