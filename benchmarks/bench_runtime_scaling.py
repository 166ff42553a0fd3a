"""Wall-clock scaling of the repro.runtime executor backends.

Runs one fixed HFL workload (default: 64 devices / 4 edges / blobs
task — the ISSUE's multi-device floor) under the serial reference
backend and then under the process pool at several worker counts,
reporting wall-clock seconds and speedup versus serial.  Every
parallel run is also checked to be *bit-identical* to the serial
history — the determinism contract of the runtime subsystem — so a
speedup here is never bought with a different answer.

Standalone (not pytest-benchmark: it manages its own worker pools)::

    PYTHONPATH=src python benchmarks/bench_runtime_scaling.py \
        --workers 1 2 4 8 --json benchmarks/results/BENCH_runtime.json

Pool start-up is included in each timed run (it is part of what a user
pays), so short horizons understate the asymptotic speedup.  The JSON
report embeds the host's CPU count — on a single-core box the process
pool can only show its overhead, which is still worth tracking.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.experiments.config import PRESETS, make_sampler
from repro.experiments.runner import build_scenario
from repro.hfl.config import HFLConfig
from repro.hfl.trainer import HFLTrainer, TrainingResult


def build_workload(args) -> tuple:
    """One scenario instance, shared by every timed run."""
    config = PRESETS["blobs-bench"].with_overrides(
        num_devices=args.devices,
        num_edges=args.edges,
        num_steps=args.steps,
        trace_kind="markov",
        seed=args.seed,
    )
    return config, build_scenario(config, args.seed)


def run_once(
    config, scenario, sampler_name: str, executor: str, num_workers: Optional[int]
) -> tuple:
    """Build a fresh trainer and time one full run."""
    devices, test, trace, model_factory = scenario
    hfl_config = HFLConfig(
        learning_rate=config.learning_rate,
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        sync_interval=config.sync_interval,
        participation_fraction=config.participation_fraction,
        aggregation=config.aggregation,
        executor=executor,
        num_workers=num_workers,
        seed=config.seed,
    )
    trainer = HFLTrainer(
        model_factory=model_factory,
        device_datasets=devices,
        trace=trace,
        sampler=make_sampler(sampler_name, config),
        config=hfl_config,
        test_dataset=test,
    )
    with trainer:
        start = time.perf_counter()
        result = trainer.run(config.num_steps)
        elapsed = time.perf_counter() - start
    return elapsed, result


def identical(a: TrainingResult, b: TrainingResult) -> bool:
    return (
        a.history.accuracy == b.history.accuracy
        and a.history.loss == b.history.loss
        and np.array_equal(a.participation_counts, b.participation_counts)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--devices", type=int, default=64)
    parser.add_argument("--edges", type=int, default=4)
    parser.add_argument("--steps", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sampler", default="uniform")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per configuration (best is kept)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)

    config, scenario = build_workload(args)
    print(
        f"workload: {args.devices} devices / {args.edges} edges / "
        f"{args.steps} steps / sampler={args.sampler} / "
        f"I={config.local_epochs} / host cpus={os.cpu_count()}"
    )

    def timed(executor: str, workers: Optional[int]) -> tuple:
        best, result = min(
            (run_once(config, scenario, args.sampler, executor, workers)
             for _ in range(args.repeats)),
            key=lambda pair: pair[0],
        )
        return best, result

    serial_seconds, serial_result = timed("serial", None)
    rows: List[Dict] = [
        {"backend": "serial", "workers": 1, "seconds": serial_seconds,
         "speedup": 1.0, "identical": True}
    ]
    print(f"{'backend':<10}{'workers':>8}{'seconds':>10}{'speedup':>9}  identical")
    print(f"{'serial':<10}{1:>8}{serial_seconds:>10.3f}{1.0:>9.2f}  -")

    for workers in args.workers:
        seconds, result = timed("process", workers)
        same = identical(serial_result, result)
        rows.append(
            {"backend": "process", "workers": workers, "seconds": seconds,
             "speedup": serial_seconds / seconds, "identical": same}
        )
        print(
            f"{'process':<10}{workers:>8}{seconds:>10.3f}"
            f"{serial_seconds / seconds:>9.2f}  {same}"
        )
        if not same:
            print("FATAL: parallel history diverged from serial", file=sys.stderr)
            return 1

    if args.json is not None:
        report = {
            "workload": {
                "task": "blobs", "devices": args.devices, "edges": args.edges,
                "steps": args.steps, "local_epochs": config.local_epochs,
                "batch_size": config.batch_size, "sampler": args.sampler,
                "participation_fraction": config.participation_fraction,
                "seed": args.seed, "repeats": args.repeats,
            },
            "host": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "results": rows,
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[report saved to {args.json}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
