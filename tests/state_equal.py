"""Exact equality for ``state_dict`` snapshots that hold ndarrays.

Sampler, tracker and churn snapshots mix JSON values with numpy arrays,
so ``dict ==`` cannot compare them; this walks both structures and
compares every array by dtype, shape and value.
"""

import numpy as np


def assert_state_equal(a, b, path="state"):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} != {b.dtype}"
        assert a.shape == b.shape, f"{path}: shape {a.shape} != {b.shape}"
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), path
    elif isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b), path
        for key in a:
            assert_state_equal(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"
