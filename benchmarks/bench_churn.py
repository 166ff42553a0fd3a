"""Open-population chaos bench: MACH vs uniform under churn + staleness.

Sweeps churn intensity × bounded-staleness window over one fixed HFL
workload (with a straggler deadline active so the staleness buffer
actually fills) and reports, per sampler, the final/best accuracy,
steps-to-target and the realized churn/staleness counts.  The question
the sweep answers: does MACH's reliability-aware UCB — now warm-started
for arrivals and fed deferred credit for late admits — hold its edge
over uniform sampling as the population opens up?

Standalone (not pytest-benchmark: runs full training horizons)::

    PYTHONPATH=src python benchmarks/bench_churn.py \
        --json benchmarks/results/BENCH_churn.json

CI chaos-smoke mode (exercises the open-population acceptance criteria
end to end, cheaply)::

    PYTHONPATH=src python benchmarks/bench_churn.py --smoke

which asserts that (1) a churn-off gated run is bit-identical to the
plain closed-world engine, (2) an everything-on run (churn + staleness
+ faults) completes with finite metrics and bit-identical histories on
both executor backends while respecting the staleness bound,
(3) a run killed mid-flight — churn state mid-stream, uploads parked —
resumes exactly, and (4) a corrupted primary checkpoint falls back to
the rotated ``.prev`` copy.
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
from repro.faults import CheckpointIntegrityError, TrainerCheckpoint
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.trainer import TrainingResult

#: The sweep's fault backdrop: moderate faults with a straggler
#: deadline low enough that the bounded-staleness window has work to do
#: in a CPU-sized workload.
FAULT_BACKDROP = "moderate,deadline=2.0"


def base_config(args):
    return PRESETS[args.preset].with_overrides(
        num_devices=args.devices,
        num_edges=args.edges,
        num_steps=args.steps,
        trace_kind="markov",
        seed=args.seed,
    )


def identical(a: TrainingResult, b: TrainingResult) -> bool:
    return (
        a.history.steps == b.history.steps
        and a.history.accuracy == b.history.accuracy
        and a.history.loss == b.history.loss
        and np.array_equal(a.participation_counts, b.participation_counts)
        and a.devices_joined == b.devices_joined
        and a.devices_left == b.devices_left
        and a.late_admits == b.late_admits
        and a.late_drops == b.late_drops
    )


def run_sweep(args) -> int:
    print(
        f"workload: {args.devices} devices / {args.edges} edges / "
        f"{args.steps} steps / faults={FAULT_BACKDROP} / "
        f"samplers={','.join(args.samplers)}"
    )
    header = (
        f"{'churn':>10}{'S':>4}  {'sampler':<10}{'final':>8}{'best':>8}"
        f"{'to-tgt':>8}{'join/left':>11}{'admit/drop':>12}"
    )
    print(header)
    rows: List[Dict] = []
    for churn in args.churn:
        for staleness in args.staleness:
            config = base_config(args).with_overrides(
                fault_profile=FAULT_BACKDROP,
                churn_profile=churn,
                max_staleness=staleness,
            )
            for sampler in args.samplers:
                finals, bests, targets = [], [], []
                joined = left = admits = drops = 0
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
                    targets.append(
                        result.time_to_accuracy(config.target_accuracy)
                    )
                    joined += result.devices_joined
                    left += result.devices_left
                    admits += result.late_admits
                    drops += result.late_drops
                to_target = (
                    float(np.mean(targets))
                    if all(t is not None for t in targets)
                    else None
                )
                row = {
                    "churn": churn,
                    "max_staleness": staleness,
                    "sampler": sampler,
                    "final_accuracy": float(np.mean(finals)),
                    "best_accuracy": float(np.mean(bests)),
                    "steps_to_target": to_target,
                    "devices_joined": joined / args.repeats,
                    "devices_left": left / args.repeats,
                    "late_admits": admits / args.repeats,
                    "late_drops": drops / args.repeats,
                }
                rows.append(row)
                t_str = f"{to_target:.0f}" if to_target is not None else "miss"
                print(
                    f"{churn:>10}{staleness:>4}  {sampler:<10}"
                    f"{row['final_accuracy']:>8.3f}{row['best_accuracy']:>8.3f}"
                    f"{t_str:>8}"
                    f"{row['devices_joined']:>5.0f}/{row['devices_left']:<5.0f}"
                    f"{row['late_admits']:>6.1f}/{row['late_drops']:<5.1f}"
                )

    if args.json is not None:
        report = {
            "workload": {
                "preset": args.preset, "devices": args.devices,
                "edges": args.edges, "steps": args.steps,
                "samplers": args.samplers, "churn_profiles": args.churn,
                "staleness_windows": args.staleness,
                "fault_profile": FAULT_BACKDROP,
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
    """The CI open-population acceptance smoke."""
    config = base_config(args).with_overrides(
        num_devices=min(args.devices, 16),
    )
    open_world = config.with_overrides(
        fault_profile="moderate,deadline=1.5",
        churn_profile="moderate",
        max_staleness=3,
    )

    print("[smoke 1/4] churn-off gate is the closed-world engine ...")
    plain = run_single(config, "mach")
    gated = run_single(
        config.with_overrides(churn_profile="none", max_staleness=0), "mach"
    )
    if not identical(plain, gated):
        print(
            "FATAL: churn_profile='none' + max_staleness=0 diverged from "
            "the ungated engine",
            file=sys.stderr,
        )
        return 1
    print("        ok: gated and ungated runs bit-identical")

    print("[smoke 2/4] churn + staleness + faults on both executors ...")
    results = {}
    for executor in ("serial", "process"):
        telemetry = TelemetryRecorder()
        results[executor] = run_single(
            open_world.with_overrides(executor=executor, num_workers=2),
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
        if executor == "serial":
            result = results[executor]
            if result.devices_joined + result.devices_left == 0:
                print("FATAL: moderate churn produced no transitions",
                      file=sys.stderr)
                return 1
            if result.late_admits + result.late_drops == 0:
                print("FATAL: no upload ever entered the staleness buffer",
                      file=sys.stderr)
                return 1
            bad_ages = [
                r.age for r in telemetry.late_admits
                if not 1 <= r.age <= open_world.max_staleness
            ]
            if bad_ages or any(
                not 0 < r.scale < np.inf for r in telemetry.late_admits
            ):
                print("FATAL: late admit violated the staleness bound or "
                      "produced a degenerate weight", file=sys.stderr)
                return 1
    if not identical(results["serial"], results["process"]):
        print(
            "FATAL: process diverged from serial in the open world",
            file=sys.stderr,
        )
        return 1
    print("        ok: open world finite + both executors bit-identical")

    print("[smoke 3/4] checkpoint kill/resume under churn ...")
    if args.steps < 3:
        print("FATAL: smoke needs --steps >= 3 to kill mid-run", file=sys.stderr)
        return 1
    kill_at = args.steps // 2 + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "checkpoint.json")
        ckpt_config = open_world.with_overrides(
            checkpoint_every=kill_at, checkpoint_path=path,
        )
        uninterrupted = run_single(ckpt_config, "mach")
        saved = TrainerCheckpoint.load(path)
        if saved.churn_state is None:
            print("FATAL: open-world checkpoint carries no churn state",
                  file=sys.stderr)
            return 1
        resumed = run_single(open_world, "mach", resume_from=path)
    if not identical(uninterrupted, resumed):
        print("FATAL: resumed run diverged from uninterrupted run",
              file=sys.stderr)
        return 1
    print(f"        ok: killed at step {kill_at}, resume replayed exactly")

    print("[smoke 4/4] corrupted checkpoint falls back to .prev ...")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        # checkpoint_every=2 writes at least twice over the horizon, so
        # save() leaves a rotated .prev beside the primary.
        run_single(
            open_world.with_overrides(
                checkpoint_every=2, checkpoint_path=str(path),
            ),
            "mach",
        )
        if not TrainerCheckpoint.previous_path(path).exists():
            print("FATAL: save() left no rotated .prev copy", file=sys.stderr)
            return 1
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        try:
            TrainerCheckpoint.load(path)
        except CheckpointIntegrityError:
            pass
        else:
            print("FATAL: truncated checkpoint loaded cleanly", file=sys.stderr)
            return 1
        try:
            fallback, used = TrainerCheckpoint.load_with_fallback(path)
        except (CheckpointIntegrityError, FileNotFoundError) as exc:
            print(f"FATAL: fallback failed: {exc}", file=sys.stderr)
            return 1
        if used != TrainerCheckpoint.previous_path(path):
            print("FATAL: fallback did not use the rotated copy",
                  file=sys.stderr)
            return 1
        run_single(open_world, "mach", resume_from=fallback)
    print("        ok: integrity error detected, .prev resumed the run")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", default="blobs-bench")
    parser.add_argument("--devices", type=int, default=32)
    parser.add_argument("--edges", type=int, default=4)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--samplers", nargs="+", default=["mach", "uniform"],
        help="sampler names to compare (default: mach uniform)",
    )
    parser.add_argument(
        "--churn", nargs="+", default=["none", "light", "moderate"],
        help="churn profiles to sweep (default: none light moderate)",
    )
    parser.add_argument(
        "--staleness", type=int, nargs="+", default=[0, 2, 5],
        help="max_staleness windows to sweep (default: 0 2 5)",
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
