"""Hypothesis fuzz of the HTTP JSON handlers.

``POST /v1/runs`` and ``POST /v1/runs/<id>/pause|resume|stop`` get
arbitrary bytes, arbitrary JSON and JSON shaped like a submission.
Every request must be answered, within the client's timeout, with a 2xx
or with a 4xx whose body is a JSON object carrying an ``error`` string:
never a 500, a dropped connection or a hang.

Accepted submissions are not trained: the coordinator's run executor is
replaced by one that fails at once, so a fuzzed scenario of any size
costs nothing.  The path under test ends where a run is registered.
"""

from __future__ import annotations

import http.client
import json
from unittest import mock
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import FIELD_TYPES, PRESETS, SAMPLER_NAMES
from repro.service import Coordinator, CoordinatorServer


def _refuse(self, record):
    raise RuntimeError("fuzzed runs are not executed")


@pytest.fixture(scope="module")
def server():
    with mock.patch.object(Coordinator, "_execute_run", _refuse):
        coordinator = Coordinator()
        server = CoordinatorServer(coordinator, host="127.0.0.1", port=0)
        server.serve_background()
        yield server
        server.shutdown()
        coordinator.shutdown()


def post(server, path: str, body: bytes):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        connection.close()


def assert_answered(status: int, content_type: str, payload: bytes) -> None:
    assert 200 <= status < 300 or 400 <= status < 500, (status, payload)
    assert content_type == "application/json"
    parsed = json.loads(payload)
    assert isinstance(parsed, dict)
    if status >= 400:
        assert isinstance(parsed.get("error"), str)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)
field_names = st.sampled_from(sorted(FIELD_TYPES))
submissions = st.fixed_dictionaries(
    {},
    optional={
        "preset": st.sampled_from(sorted(PRESETS)) | json_values,
        "scenario": st.dictionaries(field_names, json_values, max_size=4)
        | json_values,
        "overrides": st.dictionaries(field_names, json_values, max_size=4)
        | json_values,
        "sampler": st.sampled_from(SAMPLER_NAMES) | json_values,
        "seed": json_values,
        "stop_at_target": json_values,
    },
)
#: Mostly well-formed submissions, so the accepting path runs too.
near_valid = st.fixed_dictionaries(
    {"preset": st.sampled_from(sorted(PRESETS))},
    optional={
        "sampler": st.sampled_from(SAMPLER_NAMES),
        "seed": st.integers(-2, 2**70),
        "overrides": st.dictionaries(
            st.sampled_from(
                ["num_steps", "num_devices", "seed", "participation_fraction"]
            ),
            st.integers(-2, 2**70) | st.floats(-1.0, 2.0),
            max_size=3,
        ),
    },
)
bodies = (
    st.binary(max_size=64)
    | json_values.map(lambda value: json.dumps(value).encode())
    | submissions.map(lambda value: json.dumps(value).encode())
    | near_valid.map(lambda value: json.dumps(value).encode())
)
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(body=bodies)
def test_submit_answers_every_body(server, body):
    assert_answered(*post(server, "/v1/runs", body))


@FUZZ
@given(
    run_id=st.sampled_from(["run-0001", "run-0002"]) | st.text(min_size=1, max_size=30),
    action=st.sampled_from(["pause", "resume", "stop"]) | st.text(max_size=10),
    body=bodies,
)
def test_lifecycle_answers_every_body(server, run_id, action, body):
    path = f"/v1/runs/{quote(run_id, safe='')}/{quote(action, safe='')}"
    assert_answered(*post(server, path, body))
