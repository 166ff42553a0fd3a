"""What a test that pins a golden cell asserts.

Most cells are checked by the loop in ``tests/hfl/test_parity_golden.py``.
The cells in :data:`NAMED` each back a test of their own, in the file of
the contract the cell pins; the loop leaves them to that test.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from tests.golden.cells import (
    CELLS,
    MIN_CNN_STACK,
    fingerprint,
    fingerprint_isolated,
    load_fingerprints,
)

RECORDED = load_fingerprints()

#: The floating-point results depend on numpy, so the cells skip under
#: any other numpy than the one the file was recorded with.
recorded_numpy_only = pytest.mark.skipif(
    np.__version__ != RECORDED["numpy"],
    reason=(
        f"fingerprints were recorded with numpy {RECORDED['numpy']}; "
        f"numpy {np.__version__} may round differently"
    ),
)

#: Cell -> ``module:qualname`` of the test that checks it.
NAMED = {
    "base-fedavg": (
        "tests.hfl.test_parity_golden:test_topk_streaming_markov_matches_golden"
    ),
    "chaos-fedavg": (
        "tests.hfl.test_parity_golden:"
        "test_faults_churn_staleness_telemetry_match_golden"
    ),
    "chaos-delta": (
        "tests.hfl.test_parity_golden:"
        "test_faults_churn_staleness_telemetry_match_golden"
    ),
    "mnist-cnn": "tests.hfl.test_parity_golden:test_mnist_bench_cnn_matches_golden",
    "mnist-cnn-process": (
        "tests.hfl.test_parity_golden:test_mnist_bench_cnn_matches_golden"
    ),
    "small-hierarchical-ipw": (
        "tests.topology.test_equivalence:"
        "TestDefaultPairBitIdentity.test_matches_reference_twin"
    ),
    "small-hierarchical-ipw-process": (
        "tests.topology.test_equivalence:"
        "TestDefaultPairBitIdentity.test_matches_reference_twin"
    ),
    "small-eval-4-batches": (
        "tests.hfl.test_hotpath:"
        "TestTrainerHotpathParity.test_serial_run_bit_identical"
    ),
    "chaos-fedavg-process": (
        "tests.hfl.test_hotpath:"
        "TestTrainerHotpathParity.test_faulty_run_bit_identical"
    ),
}


def assert_matches_fingerprint(name: str, expected: Optional[dict] = None) -> None:
    """Run cell ``name`` and require ``expected``, by default its recorded
    fingerprint."""
    assert name in CELLS, f"recorded cell {name} is not defined in cells.py"
    assert name in RECORDED["cells"], f"cell {name} was never recorded"
    if expected is None:
        expected = RECORDED["cells"][name]
    run = fingerprint_isolated if CELLS[name].needs_hash_seed else fingerprint
    assert run(name) == expected
    if CELLS[name].min_stack:
        assert min(expected["per_round"]) >= MIN_CNN_STACK
