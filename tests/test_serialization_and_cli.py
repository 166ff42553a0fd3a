"""Tests for JSON result serialization and the run_all CLI."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.run_all import ARTIFACTS, build_parser, main
from repro.hfl.metrics import TrainingHistory
from repro.hfl.trainer import TrainingResult
from repro.utils.serialization import (
    ArrayDecodeError,
    from_jsonable,
    load_training_result,
    save_training_result,
    to_jsonable,
    training_result_from_dict,
    training_result_to_dict,
)


def make_result(reached_target_at=10, diagnostics=None):
    history = TrainingHistory()
    history.record(5, 0.4, 1.2)
    history.record(10, 0.7, 0.8)
    return TrainingResult(
        sampler_name="mach",
        history=history,
        steps_run=10,
        participation_counts=np.array([3, 1, 2]),
        mean_participants_per_step=2.0,
        reached_target_at=reached_target_at,
        diagnostics={"spread": 1.5} if diagnostics is None else diagnostics,
    )


class TestSerialization:
    def test_round_trip_dict(self):
        result = make_result()
        payload = training_result_to_dict(result)
        rebuilt = training_result_from_dict(payload)
        assert rebuilt.sampler_name == "mach"
        assert rebuilt.history.accuracy == [0.4, 0.7]
        np.testing.assert_array_equal(rebuilt.participation_counts, [3, 1, 2])
        assert rebuilt.reached_target_at == 10
        assert rebuilt.diagnostics == {"spread": 1.5}

    def test_payload_is_json_safe(self):
        payload = training_result_to_dict(make_result())
        json.dumps(payload)  # must not raise

    def test_file_round_trip(self, tmp_path):
        path = save_training_result(make_result(), tmp_path / "run.json")
        loaded = load_training_result(path)
        assert loaded.steps_run == 10
        assert loaded.time_to_accuracy(0.6) == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_training_result(tmp_path / "nope.json")

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            training_result_from_dict({"sampler_name": "x"})

    def test_none_reached_target_round_trips(self, tmp_path):
        """A run that never hit its accuracy target keeps the None."""
        result = make_result(reached_target_at=None)
        rebuilt = training_result_from_dict(training_result_to_dict(result))
        assert rebuilt.reached_target_at is None
        path = save_training_result(result, tmp_path / "run.json")
        assert load_training_result(path).reached_target_at is None

    def test_rich_diagnostics_round_trip(self, tmp_path):
        """Non-empty diagnostics with numpy scalars survive the file."""
        result = make_result(
            diagnostics={
                "spread": np.float64(2.5),
                "hard_exclusions": np.int64(3),
                "edge_load": 4.25,
            }
        )
        path = save_training_result(result, tmp_path / "run.json")
        loaded = load_training_result(path)
        assert loaded.diagnostics == {
            "spread": 2.5,
            "hard_exclusions": 3,
            "edge_load": 4.25,
        }
        # Everything came back as plain Python types, not numpy.
        assert all(
            type(v) in (int, float) for v in loaded.diagnostics.values()
        )


class TestTaggedJson:
    """to_jsonable/from_jsonable: the exact (checkpoint-grade) codec."""

    def test_ndarray_round_trip_is_bit_exact(self):
        arrays = [
            np.array([0.1, 1 / 3, np.pi, -1e-300, 1e300]),
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.array([], dtype=float),
            np.array([True, False]),
        ]
        for original in arrays:
            via_json = json.loads(json.dumps(to_jsonable(original)))
            rebuilt = from_jsonable(via_json)
            assert rebuilt.dtype == original.dtype
            np.testing.assert_array_equal(rebuilt, original)

    def test_special_values_round_trip_bit_for_bit(self):
        """−0.0, ±inf, NaN, subnormals, empty and 0-d arrays come back
        with the same dtype, shape and bytes."""
        arrays = [
            np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308]),
            np.array(-0.0),
            np.array(np.inf),
            np.array(7, dtype=np.int64),
            np.array(True),
            np.zeros(0),
            np.zeros((0, 3), dtype=np.int64),
            np.zeros((2, 0), dtype=bool),
            np.array([-(2**63), 2**63 - 1]),
            np.arange(12.0).reshape(2, 3, 2)[:, ::2],  # not C-contiguous
        ]
        for original in arrays:
            tag = to_jsonable(original)["__ndarray__"]
            assert tag["dtype"] in ("<f8", "<i8", "|b1")
            assert tag["shape"] == list(original.shape)
            rebuilt = from_jsonable(json.loads(json.dumps(to_jsonable(original))))
            assert rebuilt.dtype == original.dtype
            assert rebuilt.shape == original.shape
            assert rebuilt.tobytes() == original.tobytes()
            assert rebuilt.flags.writeable

    @given(st.binary(max_size=256).map(lambda b: b[: len(b) // 8 * 8]))
    @settings(max_examples=100, deadline=None)
    def test_any_float64_bit_pattern_round_trips(self, raw):
        original = np.frombuffer(raw, dtype="<f8")
        rebuilt = from_jsonable(json.loads(json.dumps(to_jsonable(original))))
        assert rebuilt.tobytes() == raw

    def test_narrow_dtypes_widen_exactly(self):
        for original, wire in [
            (np.arange(3, dtype=np.int32), "<i8"),
            (np.array([0.1, -0.0], dtype=np.float32), "<f8"),
        ]:
            assert to_jsonable(original)["__ndarray__"]["dtype"] == wire
            rebuilt = from_jsonable(to_jsonable(original))
            np.testing.assert_array_equal(rebuilt, original)
        for unsupported in (np.array([1 + 2j]), np.array(["a"]),
                            np.array([None]), np.arange(2, dtype=np.uint64)):
            with pytest.raises(TypeError, match="cannot encode"):
                to_jsonable(unsupported)

    @pytest.mark.parametrize("spec, message", [
        ({"dtype": ">f8", "shape": [1], "b64": "AAAAAAAA8D8="}, "dtype"),
        ({"dtype": "|O", "shape": [1], "b64": "AAAAAAAA8D8="}, "dtype"),
        ({"dtype": "<f8", "shape": [2], "b64": "AAAAAAAA8D8="}, "bytes"),
        ({"dtype": "<f8", "shape": [-1], "b64": "AAAAAAAA8D8="}, "shape"),
        ({"dtype": "<f8", "shape": 1, "b64": "AAAAAAAA8D8="}, "shape"),
        ({"dtype": "<f8", "shape": [1], "b64": "AAAAAAAA8D8"}, "base64"),
        ({"dtype": "<f8", "shape": [1], "b64": "AAAA!AAAA8D8="}, "base64"),
        ({"dtype": "<f8", "shape": [1], "b64": "AAAAAAAA8D8é"}, "base64"),
        ({"dtype": "<f8", "shape": [1], "b64": None}, "base64"),
        ({"dtype": "|b1", "shape": [1], "b64": "Ag=="}, "bool"),
        ({"dtype": "<f8", "shape": [1]}, "exactly"),
        ([1.0], "exactly"),
    ])
    def test_malformed_tags_raise_array_decode_error(self, spec, message):
        with pytest.raises(ArrayDecodeError, match=message):
            from_jsonable({"m": [{"__ndarray__": spec}]})
        with pytest.raises(ArrayDecodeError, match="sibling"):
            from_jsonable({"__ndarray__": spec, "data": []})

    def test_nested_structures(self):
        payload = {
            "models": [np.ones(3), np.zeros(2)],
            "meta": {"count": np.int64(7), "flag": np.bool_(True)},
            "scalar": np.float64(0.25),
            "none": None,
        }
        decoded = from_jsonable(json.loads(json.dumps(to_jsonable(payload))))
        np.testing.assert_array_equal(decoded["models"][0], np.ones(3))
        np.testing.assert_array_equal(decoded["models"][1], np.zeros(2))
        assert decoded["meta"] == {"count": 7, "flag": True}
        assert decoded["scalar"] == 0.25
        assert decoded["none"] is None

    def test_infinities_survive(self):
        """MACH UCB estimates can be inf; the codec must keep them."""
        decoded = from_jsonable(
            json.loads(json.dumps(to_jsonable({"e": float("inf")})))
        )
        assert decoded["e"] == float("inf")

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            to_jsonable({"bad": object()})


class TestRunAllCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.artifact == "all"
        assert args.preset == "bench"

    def test_artifact_choices(self):
        assert "fig3" in ARTIFACTS and "theory" in ARTIFACTS

    def test_theory_artifact_runs(self, capsys):
        assert main(["--artifact", "theory"]) == 0
        out = capsys.readouterr().out
        assert "THEORY" in out

    def test_out_dir_written(self, tmp_path, capsys):
        main(["--artifact", "theory", "--out", str(tmp_path)])
        assert (tmp_path / "theory.txt").exists()

    def test_bad_repeats(self):
        with pytest.raises(SystemExit):
            main(["--artifact", "theory", "--repeats", "0"])
