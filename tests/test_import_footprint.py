"""The engine's import path stays free of scipy.

In ``src/`` scipy serves only the telecom station clustering and the
image-prototype smoothing; each imports it where it is used.  Importing
``scipy.optimize`` at module top used to cost tens of MB of resident
memory in every process that imported ``repro``, whether or not it ever
needed scipy.  The check runs in a
fresh interpreter, since this test process has long imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

PROGRAM = """
import sys

import repro
from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single

config = PRESETS["blobs-bench"].with_overrides(num_steps=2, trace_kind="markov")
result = run_single(config, "mach")
assert len(result.history.steps) >= 1
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_import_and_markov_run_leave_scipy_unloaded():
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "[]"
