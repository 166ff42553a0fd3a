"""Hypothesis: :meth:`Coordinator.recover` over corrupted run directories.

Every example starts from the same interrupted durable run (checkpoints
at steps 5 and 10 of 12, manifest left ``running``) and damages it: a
truncated or byte-mutated ``run.json``, ``checkpoint.json`` or its
rotated ``.prev`` copy, a manifest key replaced by another JSON value,
or a re-signed checkpoint whose identity record disagrees with the
manifest.  The run must then come back ``failed`` with a named error
(``ExceptionName: message``), or recover to the uninterrupted run's
exact final model.  Nothing may hang or raise out of ``recover()``.

The manifest's ``stop_at_target`` is left alone: it is a run option the
recovered run obeys, so changing it changes where a correct run ends.
About 1–4 s for the 100 examples on a 2-CPU host.
"""

import hashlib
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_single
from repro.faults.checkpoint import _payload_checksum
from repro.service import Coordinator
from repro.service.types import TERMINAL_STATES

from tests.service.conftest import tiny_scenario
from tests.service.test_recovery import interrupted_run

STEPS = 12
FILES = ("run.json", "checkpoint.json", "checkpoint.json.prev")
MANIFEST_KEYS = ("run_id", "config", "sampler", "preset", "state", "steps_run",
                 "error")
IDENTITY_KEYS = ("seed", "num_steps", "participation_fraction", "sampler",
                 "data", "num_edges", "churn_profile")

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 100),
    st.floats(-2.0, 2.0),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(("seed", "x")), st.integers(0, 3), max_size=1),
)

damage = st.one_of(
    st.tuples(st.just("truncate"), st.sampled_from(FILES), st.integers(0, 10**6)),
    st.tuples(st.just("byte"), st.sampled_from(FILES), st.integers(0, 10**6),
              st.integers(0, 255)),
    st.tuples(st.just("manifest"), st.sampled_from(MANIFEST_KEYS), json_values),
    st.tuples(st.just("identity"), st.sampled_from(IDENTITY_KEYS), json_values),
)


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    state = tmp_path_factory.mktemp("template") / "state"
    run_id = interrupted_run(state, STEPS).name
    result = run_single(tiny_scenario(num_steps=STEPS), "mach")
    return state, run_id, hashlib.sha256(result.final_cloud_model.tobytes()).hexdigest()


def apply(run_dir: Path, kind, *args) -> None:
    if kind in ("truncate", "byte"):
        path = run_dir / args[0]
        data = bytearray(path.read_bytes())
        if not data:  # already truncated to nothing
            return
        position = args[1] % len(data)
        if kind == "truncate":
            del data[position:]
        else:
            data[position] = args[2]
        path.write_bytes(bytes(data))
    else:
        path = run_dir / ("run.json" if kind == "manifest" else "checkpoint.json")
        key, value = args
        try:
            document = json.loads(path.read_bytes())
            if kind == "manifest":
                document[key] = value
            else:
                document["identity"][key] = value
                document["payload_sha256"] = _payload_checksum(document)
        except (ValueError, TypeError, KeyError):
            return  # an earlier damage left no JSON object to edit
        path.write_text(json.dumps(document))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(damages=st.lists(damage, min_size=1, max_size=2))
def test_corrupted_run_fails_by_name_or_recovers_exactly(template, damages):
    source, run_id, expected_sha = template
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "state"
        shutil.copytree(source, state)
        run_dir = state / "runs" / run_id
        for kind, *args in damages:
            apply(run_dir, kind, *args)
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            recovered = coordinator.recover()
            if run_id not in {s.run_id for s in coordinator.list_runs()}:
                # Left alone: the damaged manifest names a finished run.
                manifest = json.loads((run_dir / "run.json").read_text())
                assert manifest["state"] in TERMINAL_STATES
                return
            if recovered:
                try:
                    coordinator.result(run_id, timeout=120.0)
                except RuntimeError:
                    pass  # failed while resuming; checked below
            status = coordinator.status(run_id)
            assert status.terminal, status
            if status.state == "failed":
                assert re.match(r"\w+: ", status.error), status.error
                return
            assert status.state == "completed"
            assert coordinator.summary(run_id).cloud_model_sha256 == expected_sha
