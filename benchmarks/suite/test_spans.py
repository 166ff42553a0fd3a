"""Unit tests for the benchmark's span recorder and its compare verdicts.

Run with ``python -m pytest benchmarks/suite -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants: float) -> None:
        self._instants = iter(instants)

    def __call__(self) -> float:
        return next(self._instants)


def test_nested_spans_split_self_time():
    recorder = spans.SpanRecorder(clock=FakeClock(0.0, 1.0, 3.0, 6.0))

    def inner():
        return "inner"

    def outer():
        return recorder.call("inner", inner)

    assert recorder.call("outer", outer) == "inner"
    table = recorder.table()
    assert table["outer"] == [1, 6.0, 4.0]
    assert table["inner"] == [1, 2.0, 2.0]


def test_raising_call_closes_its_span_and_propagates():
    recorder = spans.SpanRecorder(clock=FakeClock(0.0, 2.0, 10.0, 11.0))

    def broken():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        recorder.call("broken", broken)
    # The stack is empty again: the next span is a root, not a child.
    recorder.call("after", lambda: None)
    table = recorder.table()
    assert table["broken"] == [1, 2.0, 2.0]
    assert table["after"] == [1, 1.0, 1.0]


def test_window_coverage_and_trainer_residual():
    recorder = spans.SpanRecorder(
        clock=FakeClock(
            0.0, 1.0,  # setup span outside the window
            10.0,  # window opens
            11.0, 12.0, 13.0, 14.0,  # step 1: 3 s attributed, 1 s of it nested
            15.0, 16.0,  # step 2: 1 s attributed
            20.0,  # window closes
        )
    )
    recorder.call("data.build", lambda: None)

    def aggregate(nested):
        if nested:
            recorder.call("sampling.observe", lambda: None)

    def steps():
        for nested in (True, False):
            recorder.call("hfl.edge_aggregate", aggregate, nested)
            yield

    assert len(list(recorder.window(steps()))) == 2
    metrics = spans.layer_metrics(recorder.report())
    assert metrics["trace.train_wall_s"] == 10.0
    assert metrics["hfl.edge_aggregate_s"] == 3.0
    assert metrics["sampling.observe_s"] == 1.0
    assert metrics["trace.coverage"] == pytest.approx(0.4)
    assert metrics["hfl.trainer_self_s"] == pytest.approx(6.0)
    assert metrics["data.build_s"] == 1.0  # setup spans count over the whole run


def test_forked_child_records_nothing():
    recorder = spans.SpanRecorder()
    recorder._after_fork()
    assert recorder.call("x", lambda: 7) == 7
    recorder.add("runtime.local_updates", 3)
    assert recorder.table() == {} and recorder.counters() == {}


def test_instrument_records_engine_calls_and_uninstalls():
    import numpy as np

    from repro.nn.layers import Dense

    original = Dense.__dict__["forward"]
    recorder = spans.SpanRecorder()
    uninstall = spans.instrument(recorder)
    try:
        Dense(3, 2, rng=np.random.default_rng(0)).forward(np.ones((4, 3)))
    finally:
        uninstall()
    assert Dense.__dict__["forward"] is original
    assert recorder.table()["nn.dense.forward"][0] == 1


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        ([10.0, 10.1, 9.9], [10.0, 10.05, 9.95], "higher", "ok"),
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "higher", "regressed"),
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", "improved"),
        ([10.0, 14.0, 6.0, 10.0], [10.0, 12.0, 8.0, 10.0], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, change, better, expected):
    assert run.verdict(base, change, better, bound=0.1)[0] == expected


def test_compare_pools_reports_per_side(tmp_path, capsys):
    def report(path, steps_per_s):
        metrics = {m["name"]: {"runs": [1.0]} for m in run.load_benchmark()["end_to_end"]}
        metrics["steps_per_s"] = {"runs": steps_per_s}
        path.write_text(json.dumps({"workloads": {"mnist-cnn": {"end_to_end": metrics}}}))
        return str(path)

    a = ",".join([report(tmp_path / "a1.json", [10.0, 10.2]), report(tmp_path / "a2.json", [9.8])])
    assert run.compare(a, report(tmp_path / "b.json", [10.1, 9.9, 10.0])) == 0
    assert run.compare(a, report(tmp_path / "c.json", [5.0, 5.1, 4.9])) == 1
    assert "regressed" in capsys.readouterr().out
