"""``runner serve`` with the benchmark's span recorder installed.

Usage::

    python3 benchmarks/suite/serve.py SPANS_JSON [runner serve options]

Starts the coordinator service exactly as ``python -m
repro.experiments.runner serve`` does, with every wrapper of
:func:`spans.instrument` in place.  When the server stops (SIGINT), the
recorder's report is written to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    recorder = spans.SpanRecorder()
    spans.instrument(recorder)
    from repro.experiments import runner

    try:
        return runner.main(["serve", *sys.argv[2:]])
    finally:
        out.write_text(json.dumps(recorder.report()))


if __name__ == "__main__":
    raise SystemExit(main())
