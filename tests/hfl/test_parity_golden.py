"""Golden fingerprints: every cell of ``tests/golden/cells.py`` must
reproduce its recorded result in ``tests/golden/fingerprints.json``.

The cells pin the training trajectory bit for bit: the final cloud
model, the participation counts, the participants per step and per edge
round, the evaluation history and the open-world counters.  They cover
the samplers, the three topologies, faults with churn and staleness,
dense and streaming traces, the serial and process executors, the
per-device fallback, both paper CNNs and kill/resume.  The file was
recorded with the engine's reference twins agreeing on every cell; it is
re-recorded only by ``tests/golden/record.py``, when a change alters
results by design.

The base, chaos and ``mnist-bench`` cells carry the goldens this file
pinned before the fingerprint file existed, and keep their own tests
here; a few more cells back a named test in the file of the contract
they pin (``tests.golden.pinned.NAMED``).  One loop checks the rest.

Image cells run in a subprocess under ``PYTHONHASHSEED=0`` because the
synthetic image data depends on ``hash``.  The floating-point results
depend on numpy, so the cells skip under any other numpy than the one
the file was recorded with; the CI test job pins that version on its
Python 3.11 leg, and its Python 3.9 leg skips them.
"""

from __future__ import annotations

import importlib
from functools import reduce

import pytest

from tests.golden.cells import CELLS
from tests.golden.pinned import (
    NAMED,
    RECORDED,
    assert_matches_fingerprint,
    recorded_numpy_only,
)

pytestmark = recorded_numpy_only


def test_topk_streaming_markov_matches_golden():
    assert_matches_fingerprint("base-fedavg")


@pytest.mark.parametrize(
    "aggregation, golden",
    [
        ("fedavg", RECORDED["cells"]["chaos-fedavg"]),
        ("delta", RECORDED["cells"]["chaos-delta"]),
    ],
)
def test_faults_churn_staleness_telemetry_match_golden(aggregation, golden):
    assert_matches_fingerprint(f"chaos-{aggregation}", golden)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_mnist_bench_cnn_matches_golden(executor):
    assert_matches_fingerprint(
        "mnist-cnn" if executor == "serial" else "mnist-cnn-process"
    )


@pytest.mark.parametrize(
    "name", sorted((set(CELLS) | set(RECORDED["cells"])) - set(NAMED))
)
def test_cell_matches_fingerprint(name):
    assert_matches_fingerprint(name)


def test_named_cells_have_their_tests():
    """A cell the loop leaves out is checked by the test ``NAMED`` gives."""
    for name, target in NAMED.items():
        assert name in CELLS and name in RECORDED["cells"], name
        module, qualname = target.split(":")
        test = reduce(getattr, qualname.split("."), importlib.import_module(module))
        assert callable(test), target
