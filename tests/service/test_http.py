"""The stdlib HTTP transport: endpoints, client, version handshake.

One background :class:`CoordinatorServer` per test class (port 0 picks
a free port); everything goes through :class:`ServiceClient` /
``urllib`` — the same code path a remote user runs, with no test-only
shortcuts into the coordinator.
"""

import hashlib
import http.client
import json
import time
import urllib.error
import urllib.request
from unittest import mock

import pytest

import repro.api as api
from repro.experiments import runner
from repro.experiments.config import PRESETS, SAMPLER_NAMES
from repro.experiments.runner import run_single
from repro.hfl.config import HFLConfig
from repro.service import (
    Coordinator,
    CoordinatorServer,
    ServiceClient,
    ServiceError,
)
from repro.service import coordinator as coordinator_module
from repro.service.http import MAX_BODY_BYTES

from tests.service.conftest import tiny_scenario


@pytest.fixture
def server(tmp_path):
    coordinator = Coordinator(state_dir=tmp_path / "state")
    server = CoordinatorServer(coordinator, host="127.0.0.1", port=0)
    server.serve_background()
    yield server
    server.shutdown()
    coordinator.shutdown()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestEndpoints:
    def test_version_handshake(self, client):
        assert client.api_version() == api.API_VERSION

    def test_submit_poll_and_summary(self, client, scenario):
        run_id = client.submit(config=scenario, sampler="mach")
        status = client.wait(run_id, timeout=120.0)
        assert status.state == "completed"
        assert status.steps_run == scenario.num_steps
        summary = client.summary(run_id)
        # Bit-identity across the wire: the SHA-256 of the served final
        # cloud model matches a local synchronous run.
        reference = run_single(scenario, "mach")
        expected = hashlib.sha256(
            reference.final_cloud_model.tobytes()
        ).hexdigest()
        assert summary.cloud_model_sha256 == expected
        assert summary.history["accuracy"] == list(reference.history.accuracy)

    def test_submit_by_preset_with_overrides(self, client):
        run_id = client.submit(
            preset="blobs-bench",
            sampler="uniform",
            overrides={"num_steps": 4, "num_devices": 10, "num_edges": 3,
                       "samples_per_device": 20, "test_samples": 60,
                       "local_epochs": 2},
        )
        status = client.wait(run_id, timeout=120.0)
        assert status.state == "completed"
        assert status.steps_run == 4
        assert status.preset == "blobs-bench"

    def test_list_runs(self, client, scenario):
        first = client.submit(config=scenario, sampler="uniform")
        second = client.submit(config=scenario, sampler="mach")
        client.wait(second, timeout=120.0)
        runs = client.list_runs()
        assert [r.run_id for r in runs] == [first, second]

    def test_stream_jsonl_rounds(self, client, scenario):
        run_id = client.submit(config=scenario, sampler="uniform")
        rounds = list(client.stream(run_id, follow=True))
        assert len(rounds) == scenario.num_steps
        assert [r.steps_run for r in rounds] == list(
            range(1, scenario.num_steps + 1)
        )
        # Non-follow replay returns the same lines from the log.
        assert list(client.stream(run_id)) == rounds

    def test_pause_resume_stop(self, client):
        run_id = client.submit(
            preset="blobs-bench", sampler="uniform",
            overrides={"num_steps": 400, "num_devices": 10, "num_edges": 3,
                       "samples_per_device": 20, "test_samples": 60,
                       "local_epochs": 2},
        )
        paused = client.pause(run_id)
        assert paused.state in ("queued", "paused")
        resumed = client.resume_run(run_id)
        assert resumed.state in ("queued", "running")
        stopped = client.stop(run_id)
        assert stopped.state in ("running", "stopping", "stopped")
        final = client.wait(run_id, timeout=120.0)
        assert final.state == "stopped"

    def test_health_and_prometheus(self, client, scenario):
        report = client.health()
        assert report["verdict"] == "ok"
        run_id = client.submit(config=scenario, sampler="uniform")
        client.wait(run_id, timeout=120.0)
        assert client.health()["verdict"] == "ok"
        text = client.prometheus()
        assert "# TYPE repro_steps_total counter" in text


class TestErrors:
    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("run-9999")
        assert excinfo.value.status == 404

    def test_result_of_live_run_is_404(self, client):
        run_id = client.submit(
            preset="blobs-bench", sampler="uniform",
            overrides={"num_steps": 400, "num_devices": 10, "num_edges": 3,
                       "samples_per_device": 20, "test_samples": 60,
                       "local_epochs": 2},
        )
        with pytest.raises(ServiceError) as excinfo:
            client.summary(run_id)
        assert excinfo.value.status == 404
        client.stop(run_id)
        client.wait(run_id, timeout=120.0)

    def test_bad_submission_is_400(self, client):
        # Each malformed body gets a 400 carrying a JSON error that
        # names the problem, and registers no run.
        cases = [
            ([1, 2], "must be a JSON object"),
            ({"sampler": "mach"}, "exactly one of"),
            ({"preset": "blobs-bench", "sampler": "not-a-sampler"},
             f"unknown sampler 'not-a-sampler'; choose from {SAMPLER_NAMES}"),
            ({"preset": "blobs-bench", "overrides": {"executor": "gpu"}},
             "executor must be one of"),
            ({"preset": "blobs-bench", "overrides": {"gossip_degre": 3}},
             "unknown ScenarioConfig fields: ['gossip_degre']"),
            ({"preset": "blobs-bench", "overrides": {"num_steps": "3"}},
             "num_steps must be int"),
            ({"preset": "blobs-bench", "seed": "3"}, "seed must be int"),
            ({"preset": "blobs-bench", "overrides": [1]},
             "'overrides' must be a JSON object"),
            ({"preset": "blobs-bench", "overrides": {"seed": -5}},
             "seed must be >= 0"),
            ({"preset": "blobs-bench", "seed": -5}, "seed must be >= 0"),
            ({"preset": "blobs-bench",
              "overrides": {"dirichlet_alpha": float("inf")}},
             "dirichlet_alpha must be finite"),
        ]
        for body, message in cases:
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/runs", body)
            assert excinfo.value.status == 400
            assert message in str(excinfo.value)
        assert client.list_runs() == []

    def test_retired_thread_executor_is_rejected_everywhere(
        self, client, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["run", "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="executor must be one of"):
            HFLConfig(executor="thread")
        with pytest.raises(ServiceError) as excinfo:
            client.submit(preset="blobs-bench", overrides={"executor": "thread"})
        assert excinfo.value.status == 400
        assert client.list_runs() == []

    @pytest.mark.parametrize(
        "declared, status, message",
        [
            ("-1", 400, "invalid Content-Length: '-1'"),
            (str(MAX_BODY_BYTES + 1), 413, "exceeds the 1048576-byte limit"),
        ],
    )
    def test_bad_content_length_is_refused_unread(
        self, server, client, declared, status, message
    ):
        # Only the headers are sent: the answer must come from the
        # declared length alone, without waiting for a body.
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/runs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", declared)
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == status
        assert response.getheader("Connection") == "close"
        assert message in payload["error"]
        assert client.list_runs() == []

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/v1/nope", timeout=30)
        assert excinfo.value.code == 404


def wait_for_state(client, run_id, state, timeout=60.0):
    deadline = time.monotonic() + timeout
    while client.status(run_id).state != state:
        assert time.monotonic() < deadline, f"{run_id} never reached {state}"
        time.sleep(0.02)


class TestQueueBound:
    """At MAX_QUEUED_RUNS queued runs a submission is refused with 429
    and registers nothing; recovered runs are exempt."""

    def test_full_queue_is_429_and_registers_nothing(
        self, client, monkeypatch
    ):
        monkeypatch.setattr(coordinator_module, "MAX_QUEUED_RUNS", 2)
        scenario = tiny_scenario()
        # A paused run holds the dispatcher, so later runs stay queued.
        blocker = client.submit(config=scenario, sampler="uniform")
        client.pause(blocker)
        wait_for_state(client, blocker, "paused")
        queued = [
            client.submit(config=scenario, sampler="uniform")
            for _ in range(2)
        ]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(config=scenario, sampler="uniform")
        assert excinfo.value.status == 429
        assert "2 runs are already queued" in str(excinfo.value)
        assert len(client.list_runs()) == 3
        # A cancelled run frees its slot.
        client.stop(queued[0])
        queued.append(client.submit(config=scenario, sampler="uniform"))
        client.resume_run(blocker)
        for run_id in [blocker] + queued[1:]:
            assert client.wait(run_id, timeout=120.0).state == "completed"

    def test_recovered_runs_bypass_the_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(coordinator_module, "MAX_QUEUED_RUNS", 1)
        state = tmp_path / "state"
        scenario = tiny_scenario()
        run_ids = [f"run-{n:04d}" for n in (1, 2, 3)]
        for run_id in run_ids:
            run_dir = state / "runs" / run_id
            run_dir.mkdir(parents=True)
            (run_dir / "run.json").write_text(json.dumps({
                "run_id": run_id, "config": scenario.to_dict(),
                "sampler": "uniform", "seed": scenario.seed,
                "stop_at_target": False, "preset": None,
                "state": "queued", "steps_run": 0,
            }))
        coordinator = Coordinator(state_dir=state)
        server = CoordinatorServer(coordinator, host="127.0.0.1", port=0)
        server.serve_background()
        try:
            assert coordinator.recover() == run_ids
            client = ServiceClient(server.url)
            for run_id in run_ids:
                assert client.wait(run_id, timeout=120.0).state == "completed"
        finally:
            server.shutdown()
            coordinator.shutdown()


def _refuse(self, record):
    raise RuntimeError("oversized runs are not executed")


class TestSizeBound:
    """A scenario too large to build is refused with a 400 naming the
    field, and registers nothing."""

    def test_oversized_submission_is_400(self):
        # Execution is replaced by one that fails at once, so a run the
        # bound failed to refuse is never built.
        with mock.patch.object(Coordinator, "_execute_run", _refuse):
            coordinator = Coordinator()
            server = CoordinatorServer(coordinator, host="127.0.0.1", port=0)
            server.serve_background()
            try:
                client = ServiceClient(server.url)
                cases = [
                    ({"num_devices": 100_000_000_000},
                     "num_devices=100000000000 exceeds the service limit"),
                    ({"num_steps": 10**23},
                     f"num_steps={10**23} exceeds the service limit"),
                    ({"samples_per_device": 10**8},
                     "samples_per_device + test_samples) * values per sample="),
                    ({"task": "mnist", "image_size": 100_000},
                     "samples_per_device + test_samples) * values per sample="),
                ]
                for overrides, message in cases:
                    with pytest.raises(ServiceError) as excinfo:
                        client._request("POST", "/v1/runs", {
                            "preset": "blobs-bench", "overrides": overrides,
                        })
                    assert excinfo.value.status == 400
                    assert message in str(excinfo.value)
                assert client.list_runs() == []
            finally:
                server.shutdown()
                coordinator.shutdown()

    def test_bound_admits_presets_and_the_suite_tenfold(self):
        chaos = PRESETS["blobs-bench"].with_overrides(
            num_devices=250, samples_per_device=20, num_steps=2000,
        )
        for config in [*PRESETS.values(), chaos]:
            coordinator_module._check_run_size(config.with_overrides(
                num_devices=10 * config.num_devices,
                num_steps=10 * config.num_steps,
                samples_per_device=10 * config.samples_per_device,
            ))


class TestAttach:
    def test_attach_verifies_api_version(self, server, scenario):
        client = api.attach(server.url)
        run_id = client.submit(config=scenario, sampler="uniform")
        status = client.wait(run_id, timeout=120.0)
        assert status.terminal

    def test_attach_rejects_major_mismatch(self, server, monkeypatch):
        monkeypatch.setattr(api, "API_VERSION", "99.0")
        with pytest.raises(ServiceError) as excinfo:
            api.attach(server.url)
        assert excinfo.value.status == 426

    def test_remote_run_handle_streams_but_hides_result(self, server, scenario):
        client = api.attach(server.url)
        run_id = client.submit(config=scenario, sampler="uniform")
        handle = api.RunHandle(run_id=run_id, _backend=client)
        status = handle.wait(timeout=120.0)
        assert status.state == "completed"
        rounds = list(handle.stream())
        assert len(rounds) == scenario.num_steps
        assert handle.summary().cloud_model_sha256
        with pytest.raises(ServiceError) as excinfo:
            handle.result()
        assert excinfo.value.status == 400


class TestServedRecovery:
    def test_server_restart_over_same_state_dir(self, tmp_path, scenario):
        """submit → complete → restart server → the run is still there."""
        state = tmp_path / "state"
        coordinator = Coordinator(state_dir=state)
        server = CoordinatorServer(coordinator, host="127.0.0.1", port=0)
        server.serve_background()
        client = ServiceClient(server.url)
        run_id = client.submit(config=scenario, sampler="uniform")
        client.wait(run_id, timeout=120.0)
        server.shutdown()
        coordinator.shutdown()

        manifest = json.loads(
            (state / "runs" / run_id / "run.json").read_text()
        )
        assert manifest["state"] == "completed"
        coordinator = Coordinator(state_dir=state)
        try:
            assert coordinator.recover() == []
            assert coordinator.submit(scenario, sampler="uniform") != run_id
        finally:
            coordinator.shutdown()

    def test_unloadable_runs_fail_and_the_rest_recover(self, tmp_path):
        """One bad run must not stop recovery: a manifest naming a
        retired executor and a truncated manifest land in ``failed``
        with their error, and the good run beside them resumes."""
        runs = tmp_path / "state" / "runs"
        good = tiny_scenario().to_dict()
        retired = dict(good, executor="thread")
        manifests = {"run-0001": good, "run-0002": retired}
        for run_id, config in manifests.items():
            (runs / run_id).mkdir(parents=True)
            (runs / run_id / "run.json").write_text(json.dumps({
                "run_id": run_id, "config": config, "sampler": "uniform",
                "seed": 5, "stop_at_target": False, "preset": None,
                "state": "running", "steps_run": 0, "error": None,
            }))
        (runs / "run-0002" / "metrics.jsonl").write_text("")
        truncated = (runs / "run-0001" / "run.json").read_text()[:40]
        (runs / "run-0003").mkdir()
        (runs / "run-0003" / "run.json").write_text(truncated)

        coordinator = Coordinator(state_dir=tmp_path / "state")
        server = CoordinatorServer(coordinator, host="127.0.0.1", port=0)
        server.serve_background()
        try:
            assert coordinator.recover() == ["run-0001"]
            client = ServiceClient(server.url)
            assert client.wait("run-0001", timeout=120.0).state == "completed"
            for run_id, error in [
                ("run-0002", "ValueError: executor must be one of"),
                ("run-0003", "JSONDecodeError"),
            ]:
                status = client.status(run_id)
                assert status.state == "failed"
                assert error in status.error
                manifest = json.loads((runs / run_id / "run.json").read_text())
                assert manifest["state"] == "failed"
                assert manifest["error"] == status.error
            # The failed run's files stay, and a second pass skips it.
            assert (runs / "run-0002" / "metrics.jsonl").is_file()
            assert json.loads(
                (runs / "run-0002" / "run.json").read_text()
            )["config"]["executor"] == "thread"
            assert coordinator.recover() == []
        finally:
            server.shutdown()
            coordinator.shutdown()
