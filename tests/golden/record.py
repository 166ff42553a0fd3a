"""Record ``tests/golden/fingerprints.json`` from the cells in ``cells.py``.

Run it only when a change alters results by design::

    PYTHONPATH=src python tests/golden/record.py

A kill/resume cell must equal its uninterrupted cell, a process cell
its serial cell, and every CNN edge round must stack at least
``MIN_CNN_STACK`` devices; the script writes nothing unless all of
these hold.  The file was first recorded while the engine still carried
runnable reference twins of its optimised paths (the unfused local
update, the per-device loop, the pre-topology trainer and others), with
every cell agreeing across them.  Image cells need
``PYTHONHASHSEED=0``, so the script re-runs itself under it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(
        sys.executable,
        [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
        dict(os.environ, PYTHONHASHSEED="0"),
    )

sys.path[:0] = [str(Path(__file__).resolve().parents[2] / "src"),
                str(Path(__file__).resolve().parents[2])]

import numpy as np  # noqa: E402

from tests.golden.cells import (  # noqa: E402
    CELLS,
    FINGERPRINTS,
    MIN_CNN_STACK,
    dump_fingerprints,
    fingerprint,
)


def main() -> int:
    recorded = {}
    disagreements = []
    for name, cell in CELLS.items():
        result = fingerprint(name)
        for suffix in ("-kill", "-process"):
            base = name[: -len(suffix)]
            if name.endswith(suffix) and fingerprint(base) != result:
                disagreements.append(f"{name}: differs from {base}")
        if cell.min_stack and min(result["per_round"]) < MIN_CNN_STACK:
            disagreements.append(
                f"{name}: an edge round holds {min(result['per_round'])} "
                f"devices (< {MIN_CNN_STACK})"
            )
        recorded[name] = result
        print(f"{name}: {result['sha256'][:16]}")
    if disagreements:
        print("refusing to write:\n  " + "\n  ".join(disagreements), file=sys.stderr)
        return 1
    FINGERPRINTS.write_text(dump_fingerprints(np.__version__, recorded))
    print(f"wrote {len(recorded)} cells to {FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
