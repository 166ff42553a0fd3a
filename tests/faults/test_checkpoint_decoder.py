"""Hostile inputs for the checkpoint decoder.

A checkpoint file is read back after crashes, disk faults and hand
edits, so the decoder must refuse anything malformed with a named
``ValueError`` (:class:`CheckpointIntegrityError` or a ``ValueError``
whose message names the problem), never a raw ``KeyError`` /
``TypeError`` / ``binascii.Error``, a hang, or a silent load.

Structural mutations are re-signed with a fresh checksum, so they reach
the array codec and the sampler/churn ``load_state_dict`` checks rather
than stopping at the checksum; truncations and flipped bytes are not,
and must stop at the integrity checks.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mach import MACHSampler
from repro.faults import (
    CheckpointIntegrityError,
    CheckpointMismatchError,
    TrainerCheckpoint,
)
from repro.faults.checkpoint import _payload_checksum
from repro.utils.serialization import from_jsonable, to_jsonable

from tests.faults.test_degradation import build_trainer

#: MACH with churn, staleness and faults: the payload carries the
#: tracker columns, the churn mask, parked uploads and every model.
SCENARIO = dict(
    churn_profile="moderate", max_staleness=3, fault_profile="moderate,deadline=1.5"
)
#: Not a multiple of the sync interval (5), so buffers are non-empty;
#: two late uploads are parked at this step.
STEPS = 7
TRACKER = ("sampler_state", "tracker")
TRACKER_COLUMNS = (
    "buffer_len", "buffer", "window_best", "window_participated",
    "lifetime_best", "participation_count", "exploit", "has_exploit",
    "estimate", "has_estimate",
)
FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def payload():
    with build_trainer(MACHSampler(), **SCENARIO) as trainer:
        trainer.run(num_steps=STEPS)
        payload = trainer.make_checkpoint(STEPS).to_dict()
    buffer_len = from_jsonable(get(payload, TRACKER + ("buffer_len",)))
    assert buffer_len.any(), "the fixture must checkpoint non-empty buffers"
    assert payload["churn_state"] is not None
    assert payload["stale_buffer"], "the fixture must park a late upload"
    return payload


@pytest.fixture(scope="module")
def target():
    with build_trainer(MACHSampler(), **SCENARIO) as trainer:
        yield trainer


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("decoder")


def get(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def put(payload, path, value):
    get(payload, path[:-1])[path[-1]] = value


def array_paths(value, prefix=()):
    """Paths of every tagged array in a payload."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return [prefix]
        return [p for k, v in value.items() for p in array_paths(v, prefix + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in array_paths(v, prefix + (i,))]
    return []


def load_and_restore(text, workdir, target):
    path = workdir / "ckpt.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    target.restore_checkpoint(TrainerCheckpoint.load(path))


def assert_named(exc):
    """The error is an integrity error, a mismatch error naming the
    scenario field, or a plain ``ValueError`` that names the checkpoint
    — not a library error that leaked through."""
    assert type(exc) in (CheckpointIntegrityError, CheckpointMismatchError) or (
        type(exc) is ValueError and "checkpoint" in str(exc)
    ), repr(exc)


def assert_refused(text, workdir, target):
    with pytest.raises(ValueError) as excinfo:
        load_and_restore(text, workdir, target)
    assert_named(excinfo.value)


def resigned(payload):
    payload["payload_sha256"] = _payload_checksum(payload)
    return json.dumps(payload)


def test_unmutated_payload_restores(payload, workdir, target):
    load_and_restore(json.dumps(payload), workdir, target)


@st.composite
def column_mutation(draw, payload):
    """A well-formed array tag with the wrong content: a missing tracker
    column, any array with a wrong length or another dtype, or negative /
    wrongly summed buffer lengths."""
    mutated = copy.deepcopy(payload)
    kind = draw(st.sampled_from(["missing", "length", "retype", "negative", "sum"]))
    if kind == "missing":
        column = draw(st.sampled_from(TRACKER_COLUMNS))
        del get(mutated, TRACKER)[column]
    elif kind in ("length", "retype"):
        path = draw(st.sampled_from(array_paths(mutated)))
        array = from_jsonable(get(mutated, path))
        if kind == "length":
            size = draw(st.sampled_from(
                [n for n in range(array.size + 6) if n != array.size]
            ))
            array = np.resize(array, size)
        elif array.dtype == bool:
            array = array.astype(np.int64)
        else:
            # Same bytes under the other 8-byte dtype.
            array = array.view(np.int64 if array.dtype == np.float64 else np.float64)
        put(mutated, path, to_jsonable(array))
    else:
        path = TRACKER + ("buffer_len",)
        lengths = from_jsonable(get(mutated, path))
        device = draw(st.integers(0, lengths.size - 1))
        if kind == "negative":
            # Keep the sum right, so only the sign check can catch it.
            shift = draw(st.integers(int(lengths[device]) + 1, 50))
            lengths[device] -= shift
            lengths[(device + 1) % lengths.size] += shift
        else:
            lengths[device] += draw(st.sampled_from(
                [n for n in range(-int(lengths[device]), 6) if n]
            ))
        put(mutated, path, to_jsonable(lengths))
    return mutated


BAD_DTYPES = ["<f4", ">f8", ">i8", "<u8", "<c16", "|O", "O", "object",
              "float64", "|V8", "", 7, None]


@st.composite
def tag_mutation(draw, payload):
    """A malformed array tag anywhere in the payload: an unknown or
    object dtype, a shape its bytes disagree with, non-base64 text, or
    a tag with missing or extra keys."""
    mutated = copy.deepcopy(payload)
    path = draw(st.sampled_from(array_paths(mutated)))
    spec = get(mutated, path)["__ndarray__"]
    kind = draw(st.sampled_from(["dtype", "shape", "b64", "keys"]))
    if kind == "dtype":
        spec["dtype"] = draw(st.sampled_from(BAD_DTYPES))
    elif kind == "shape":
        size = int(np.prod(spec["shape"]))
        spec["shape"] = draw(st.one_of(
            st.lists(st.integers(0, 40), max_size=3).filter(
                lambda s: int(np.prod(s)) != size
            ),
            st.just([-1]),
            st.just([float(size)]),
            st.just(str(size)),
            st.just([True] * max(size, 1)),
        ))
    elif kind == "b64":
        text = spec["b64"]
        where = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from(["!", "*", " ", "é", "\n", "=", "A", "-_"]))
        edits = [text[:where] + junk + text[where:], 123]
        if where < len(text):
            edits.append(text[:where] + text[where + 1:])
        spec["b64"] = draw(st.sampled_from(edits))
    else:
        if draw(st.booleans()):
            del spec[draw(st.sampled_from(sorted(spec)))]
        else:
            get(mutated, path)["extra"] = 1
    return mutated


@given(data=st.data())
@FUZZ
def test_column_mutations_are_refused(payload, workdir, target, data):
    assert_refused(resigned(data.draw(column_mutation(payload))), workdir, target)


@given(data=st.data())
@FUZZ
def test_tag_mutations_are_refused(payload, workdir, target, data):
    assert_refused(resigned(data.draw(tag_mutation(payload))), workdir, target)


@given(data=st.data())
@FUZZ
def test_truncated_files_are_refused(payload, workdir, target, data):
    text = json.dumps(payload)
    cut = data.draw(st.integers(0, len(text) - 1))
    with pytest.raises(CheckpointIntegrityError):
        load_and_restore(text[:cut], workdir, target)


@given(data=st.data())
@FUZZ
def test_flipped_bytes_are_refused(payload, workdir, target, data):
    """A flipped byte fails the checksum, the JSON or the version check;
    the only flips that may load are those that leave the parsed payload
    unchanged (``1e-05`` → ``1E-05``)."""
    raw = bytearray(json.dumps(payload).encode())
    where = data.draw(st.integers(0, len(raw) - 1))
    raw[where] ^= data.draw(st.integers(1, 255))
    try:
        load_and_restore(bytes(raw), workdir, target)
    except ValueError as exc:
        assert_named(exc)
    else:
        assert json.loads(bytes(raw)) == payload
