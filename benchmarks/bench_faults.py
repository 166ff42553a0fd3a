"""Sampler robustness under device faults: MACH vs the baselines.

Sweeps the fault profile's dropout rate (with mobility-coupled
departures enabled) over one fixed HFL workload and reports, per
sampler, the final/best accuracy, steps-to-target and the realized
fault counts.  The question the sweep answers: does MACH's UCB — which
counts sampled-but-failed rounds as participation without exploitation
credit, i.e. learns device *reliability* — degrade more gracefully than
samplers that never see the failures?

Standalone (not pytest-benchmark: runs full training horizons)::

    PYTHONPATH=src python benchmarks/bench_faults.py \
        --dropout 0.0 0.1 0.2 0.3 --json benchmarks/results/BENCH_faults.json

CI smoke mode (exercises the robustness acceptance criteria end to
end, cheaply)::

    PYTHONPATH=src python benchmarks/bench_faults.py --smoke

which asserts that (1) a run with every fault type enabled completes
with finite metrics on both executor backends with bit-identical
histories, and (2) a run killed at a checkpoint and resumed matches the
uninterrupted run exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.trainer import TrainingResult


def sweep_config(args, dropout: float):
    """The workload for one sweep point; faults scale with ``dropout``."""
    profile = (
        "none"
        if dropout == 0.0
        else f"dropout={dropout},mobility={min(2 * dropout, 1.0)}"
    )
    return PRESETS[args.preset].with_overrides(
        num_devices=args.devices,
        num_edges=args.edges,
        num_steps=args.steps,
        trace_kind="markov",
        seed=args.seed,
        fault_profile=profile,
    )


def identical(a: TrainingResult, b: TrainingResult) -> bool:
    return (
        a.history.steps == b.history.steps
        and a.history.accuracy == b.history.accuracy
        and a.history.loss == b.history.loss
        and np.array_equal(a.participation_counts, b.participation_counts)
    )


def run_sweep(args) -> int:
    print(
        f"workload: {args.devices} devices / {args.edges} edges / "
        f"{args.steps} steps / repeats={args.repeats} / "
        f"samplers={','.join(args.samplers)}"
    )
    header = (
        f"{'dropout':>8}  {'sampler':<12}{'final acc':>10}{'best acc':>10}"
        f"{'to-target':>10}{'failed uploads':>15}"
    )
    print(header)
    rows: List[Dict] = []
    for dropout in args.dropout:
        config = sweep_config(args, dropout)
        for sampler in args.samplers:
            finals, bests, targets, failed = [], [], [], []
            for repeat in range(args.repeats):
                telemetry = TelemetryRecorder()
                result = run_single(
                    config,
                    sampler,
                    seed=args.seed + repeat,
                    telemetry=telemetry,
                )
                finals.append(result.history.final_accuracy())
                bests.append(result.history.best_accuracy())
                targets.append(result.time_to_accuracy(config.target_accuracy))
                summary = telemetry.fault_summary()
                failed.append(
                    sum(v for k, v in summary.items() if k != "sync_failure")
                )
            to_target = (
                float(np.mean(targets))
                if all(t is not None for t in targets)
                else None
            )
            row = {
                "dropout": dropout,
                "sampler": sampler,
                "final_accuracy": float(np.mean(finals)),
                "best_accuracy": float(np.mean(bests)),
                "steps_to_target": to_target,
                "failed_uploads": float(np.mean(failed)),
            }
            rows.append(row)
            t_str = f"{to_target:.0f}" if to_target is not None else "miss"
            print(
                f"{dropout:>8.2f}  {sampler:<12}{row['final_accuracy']:>10.3f}"
                f"{row['best_accuracy']:>10.3f}{t_str:>10}"
                f"{row['failed_uploads']:>15.1f}"
            )

    if args.json is not None:
        report = {
            "workload": {
                "preset": args.preset, "devices": args.devices,
                "edges": args.edges, "steps": args.steps,
                "samplers": args.samplers, "dropout_rates": args.dropout,
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


def run_smoke(args) -> int:
    """The CI fault-injection + checkpoint-kill-resume smoke."""
    config = PRESETS[args.preset].with_overrides(
        num_devices=min(args.devices, 16),
        num_edges=args.edges,
        num_steps=args.steps,
        trace_kind="markov",
        seed=args.seed,
        fault_profile="severe",  # every fault type enabled
    )

    print("[smoke 1/2] severe faults on serial/process ...")
    results = {}
    for executor in ("serial", "process"):
        telemetry = TelemetryRecorder()
        results[executor] = run_single(
            config.with_overrides(executor=executor, num_workers=2),
            "mach",
            telemetry=telemetry,
        )
        history = results[executor].history
        if not (
            np.all(np.isfinite(history.accuracy))
            and np.all(np.isfinite(history.loss))
        ):
            print(f"FATAL: non-finite metrics under {executor}", file=sys.stderr)
            return 1
        if executor == "serial" and not telemetry.fault_summary():
            print("FATAL: severe profile produced no faults", file=sys.stderr)
            return 1
    if not identical(results["serial"], results["process"]):
        print(
            "FATAL: process history diverged from serial under faults",
            file=sys.stderr,
        )
        return 1
    print("        ok: run completed, both executors bit-identical")

    print("[smoke 2/2] checkpoint kill/resume ...")
    if args.steps < 3:
        print("FATAL: smoke needs --steps >= 3 to kill mid-run", file=sys.stderr)
        return 1
    # steps//2 + 1 is written exactly once (its next multiple is past the
    # horizon), so the file left behind is the mid-run snapshot — i.e.
    # the run "killed" right after writing it.
    kill_at = args.steps // 2 + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "checkpoint.json")
        ckpt_config = config.with_overrides(
            checkpoint_every=kill_at, checkpoint_path=path,
        )
        uninterrupted = run_single(ckpt_config, "mach")
        resumed = run_single(config, "mach", resume_from=path)
    if not identical(uninterrupted, resumed):
        print("FATAL: resumed run diverged from uninterrupted run", file=sys.stderr)
        return 1
    print(f"        ok: killed at step {kill_at}, resume replayed exactly")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", default="blobs-bench")
    parser.add_argument("--devices", type=int, default=32)
    parser.add_argument("--edges", type=int, default=4)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--samplers", nargs="+", default=["mach", "uniform", "statistical"],
        help="sampler names to compare (default: mach uniform statistical)",
    )
    parser.add_argument(
        "--dropout", type=float, nargs="+", default=[0.0, 0.1, 0.2, 0.3],
        help="dropout rates to sweep (mobility departures scale along)",
    )
    parser.add_argument("--repeats", type=int, default=1,
                        help="seeds per sweep point (mean is reported)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the machine-readable report here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI acceptance smoke instead of the sweep",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    return run_sweep(args)


if __name__ == "__main__":
    raise SystemExit(main())
