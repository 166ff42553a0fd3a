"""City-scale population bench: devices vs wall-clock at fixed capacity.

Sweeps the device population over {1k, 10k, 100k} at a *fixed* sampled
capacity (participation_fraction scaled as target/devices) and reports
wall-clock plus peak RSS for MACH vs uniform on the dense and streaming
trace backends.  The question the table answers: does the city-scale
engine — population-batched local updates, chunked trace serving and
O(sampled) top-k MACH — keep wall-clock growth sub-linear in the
population when the per-step training work is constant?

Each cell runs in its own subprocess so ``ru_maxrss`` is an honest
per-cell peak, not a high-water mark inherited from a bigger neighbour.

Standalone (not pytest-benchmark: runs full training horizons)::

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --json benchmarks/results/BENCH_scale.json

CI scale-smoke mode (cheap; exercises the acceptance criteria)::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke \
        --json scale_smoke_table.json

which asserts that (1) the streaming trace backend is bit-identical to
dense on a telecom trace (whose streaming path wraps the same grid),
(2) top-k MACH with a pool covering every member equals the full
Eq. (16)-(18) strategy, and (3) a mid-sized streaming run stays under a
peak-RSS ceiling — then writes a two-population mini scaling table for
the CI artifact.  That population-batched local updates equal the
per-device loop end to end is pinned by the ``scale-dense`` golden
fingerprint cell (``tests/golden``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.experiments.config import PRESETS, ScenarioConfig
from repro.experiments.runner import run_single
from repro.hfl.trainer import TrainingResult

#: Sampled devices per step, held constant across populations.  With
#: participation_fraction = CAPACITY / devices, each step trains the
#: same number of devices whether the city holds 1k or 100k of them —
#: so any wall-clock growth is pure population overhead.
FIXED_CAPACITY = 48

#: Peak-RSS ceiling for the smoke's mid-sized streaming cell.  The
#: measured footprint is ~100 MB; a regression that materializes the
#: dense grid or per-device model copies blows well past 4x headroom.
SMOKE_RSS_CEILING_MB = 400


def cell_config(args, devices: int, backend: str) -> ScenarioConfig:
    return PRESETS[args.preset].with_overrides(
        num_devices=devices,
        num_edges=args.edges,
        num_steps=args.steps,
        samples_per_device=args.samples_per_device,
        participation_fraction=min(1.0, args.capacity / devices),
        trace_kind="markov",
        trace_backend=backend,
        mach_selection="topk",
        eval_cadence="adaptive",
        seed=args.seed,
    )


def identical(a: TrainingResult, b: TrainingResult) -> bool:
    return (
        a.history.steps == b.history.steps
        and a.history.accuracy == b.history.accuracy
        and a.history.loss == b.history.loss
        and np.array_equal(a.participation_counts, b.participation_counts)
    )


# ---------------------------------------------------------------------------
# Cell child process


def run_cell(spec: Dict) -> Dict:
    """One (devices, sampler, backend) measurement, reported as JSON."""
    from repro.experiments.runner import (
        build_scenario,
        hfl_config_for,
    )
    from repro.experiments.config import make_sampler
    from repro.hfl.trainer import HFLTrainer

    config_dict = dict(spec["config"])
    config = ScenarioConfig(**config_dict)
    t0 = time.perf_counter()
    devices, test, trace, model_factory = build_scenario(config, config.seed)
    setup_seconds = time.perf_counter() - t0

    trainer = HFLTrainer(
        model_factory=model_factory,
        device_datasets=devices,
        trace=trace,
        sampler=make_sampler(spec["sampler"], config),
        config=hfl_config_for(config, config.seed),
        test_dataset=test,
    )
    t1 = time.perf_counter()
    with trainer:
        result = trainer.run(config.num_steps)
    train_seconds = time.perf_counter() - t1

    return {
        "devices": config.num_devices,
        "sampler": spec["sampler"],
        "backend": config.trace_backend,
        "steps": config.num_steps,
        "setup_seconds": round(setup_seconds, 3),
        "train_seconds": round(train_seconds, 3),
        "steps_per_second": round(config.num_steps / train_seconds, 2),
        "final_accuracy": result.history.final_accuracy(),
        "evals": len(result.history.steps),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def spawn_cell(spec: Dict) -> Dict:
    """Run one cell in a fresh interpreter for an honest per-cell RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--cell", json.dumps(spec)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"cell {spec['sampler']}/{spec['config']['num_devices']} failed:\n"
            f"{proc.stderr}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith("@@CELL "):
            return json.loads(line[len("@@CELL "):])
    raise RuntimeError(f"cell produced no result line:\n{proc.stdout}")


# ---------------------------------------------------------------------------
# Sweep


def config_payload(config: ScenarioConfig) -> Dict:
    from dataclasses import asdict

    return asdict(config)


def run_sweep(args) -> int:
    print(
        f"fixed capacity: {args.capacity} sampled devices/step | "
        f"{args.edges} edges | {args.steps} steps | "
        f"populations: {', '.join(str(p) for p in args.populations)}"
    )
    header = (
        f"{'devices':>9}{'sampler':>9}{'backend':>11}{'setup':>8}"
        f"{'train':>9}{'steps/s':>9}{'rss MB':>8}{'final':>7}{'evals':>7}"
    )
    print(header)
    rows: List[Dict] = []
    for devices in args.populations:
        for backend in args.backends:
            for sampler in args.samplers:
                spec = {
                    "sampler": sampler,
                    "config": config_payload(cell_config(args, devices, backend)),
                }
                row = spawn_cell(spec)
                rows.append(row)
                print(
                    f"{row['devices']:>9}{row['sampler']:>9}{row['backend']:>11}"
                    f"{row['setup_seconds']:>8.2f}{row['train_seconds']:>9.2f}"
                    f"{row['steps_per_second']:>9.1f}{row['peak_rss_mb']:>8.0f}"
                    f"{row['final_accuracy']:>7.3f}{row['evals']:>7}"
                )

    flagship = None
    if args.flagship:
        print(f"[flagship] {args.flagship_devices} devices x "
              f"{args.flagship_steps} steps, streaming + topk + adaptive ...")
        flagship_args = argparse.Namespace(**vars(args))
        flagship_args.steps = args.flagship_steps
        spec = {
            "sampler": "mach",
            "config": config_payload(
                cell_config(flagship_args, args.flagship_devices, "streaming")
            ),
        }
        flagship = spawn_cell(spec)
        print(
            f"           done in {flagship['train_seconds']:.1f}s train "
            f"(+{flagship['setup_seconds']:.1f}s setup), "
            f"{flagship['peak_rss_mb']:.0f} MB peak, "
            f"final acc {flagship['final_accuracy']:.3f}"
        )

    growth = scaling_summary(rows, args)
    for line in growth["narrative"]:
        print(line)

    if args.json is not None:
        report = {
            "workload": {
                "preset": args.preset,
                "capacity": args.capacity,
                "edges": args.edges,
                "steps": args.steps,
                "samples_per_device": args.samples_per_device,
                "populations": args.populations,
                "samplers": args.samplers,
                "backends": args.backends,
                "seed": args.seed,
            },
            "host": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "results": rows,
            "scaling": growth["table"],
            "flagship": flagship,
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[report saved to {args.json}]")

    if growth["superlinear"]:
        print(
            "FATAL: wall-clock grew at least linearly with the population "
            "at fixed capacity", file=sys.stderr,
        )
        return 1
    return 0


def scaling_summary(rows: List[Dict], args) -> Dict:
    """Per (sampler, backend): wall-clock growth across the populations."""
    table, narrative, superlinear = [], [], False
    for backend in args.backends:
        for sampler in args.samplers:
            series = [
                r for r in rows
                if r["sampler"] == sampler and r["backend"] == backend
            ]
            series.sort(key=lambda r: r["devices"])
            if len(series) < 2:
                continue
            lo, hi = series[0], series[-1]
            pop_growth = hi["devices"] / lo["devices"]
            time_growth = hi["train_seconds"] / lo["train_seconds"]
            entry = {
                "sampler": sampler,
                "backend": backend,
                "population_growth": pop_growth,
                "train_time_growth": round(time_growth, 2),
                "sublinear": time_growth < pop_growth,
            }
            table.append(entry)
            narrative.append(
                f"[scaling] {sampler}/{backend}: {pop_growth:.0f}x devices -> "
                f"{time_growth:.1f}x wall-clock "
                f"({'sub-linear' if entry['sublinear'] else 'NOT sub-linear'})"
            )
            if not entry["sublinear"]:
                superlinear = True
    return {"table": table, "narrative": narrative, "superlinear": superlinear}


# ---------------------------------------------------------------------------
# Smoke


def run_smoke(args) -> int:
    """The CI city-scale acceptance smoke."""
    base = cell_config(args, devices=64, backend="dense").with_overrides(
        num_steps=min(args.steps, 20),
        participation_fraction=0.5,
        mach_selection="full",
        eval_cadence="fixed",
    )

    print("[smoke 1/3] streaming trace backend == dense (telecom grid) ...")
    telecom = base.with_overrides(trace_kind="telecom")
    dense = run_single(telecom, "mach")
    streamed = run_single(
        telecom.with_overrides(trace_backend="streaming", trace_chunk_steps=4),
        "mach",
    )
    if not identical(dense, streamed):
        print("FATAL: streaming backend diverged from dense", file=sys.stderr)
        return 1
    print("        ok: dense and streaming runs bit-identical")

    print("[smoke 2/3] top-k MACH with full-width pool == full strategy ...")
    full = run_single(base, "mach")
    topk = run_single(
        base.with_overrides(mach_selection="topk", mach_candidate_factor=1e6),
        "mach",
    )
    if not identical(full, topk):
        print("FATAL: top-k selection with a full-width pool diverged",
              file=sys.stderr)
        return 1
    print("        ok: top-k prescreen is conservative")

    print("[smoke 3/3] mid-sized streaming cell under the RSS ceiling ...")
    mini_args = argparse.Namespace(**vars(args))
    mini_args.steps = min(args.steps, 30)
    rows = []
    for devices in (1_000, 5_000):
        spec = {
            "sampler": "mach",
            "config": config_payload(
                cell_config(mini_args, devices, "streaming")
            ),
        }
        rows.append(spawn_cell(spec))
    worst = max(rows, key=lambda r: r["peak_rss_mb"])
    if worst["peak_rss_mb"] > SMOKE_RSS_CEILING_MB:
        print(
            f"FATAL: {worst['devices']}-device cell peaked at "
            f"{worst['peak_rss_mb']:.0f} MB "
            f"(ceiling {SMOKE_RSS_CEILING_MB} MB)", file=sys.stderr,
        )
        return 1
    print(
        f"        ok: peak RSS {worst['peak_rss_mb']:.0f} MB "
        f"<= {SMOKE_RSS_CEILING_MB} MB ceiling"
    )

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({"results": rows}, indent=2) + "\n")
        print(f"[mini scaling table saved to {args.json}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", default="blobs-bench")
    parser.add_argument("--populations", type=int, nargs="+",
                        default=[1_000, 10_000, 100_000])
    parser.add_argument("--edges", type=int, default=8)
    parser.add_argument("--steps", type=int, default=120)
    parser.add_argument("--samples-per-device", type=int, default=10)
    parser.add_argument("--capacity", type=int, default=FIXED_CAPACITY,
                        help="sampled devices per step, fixed across populations")
    parser.add_argument("--samplers", nargs="+", default=["mach", "uniform"])
    parser.add_argument("--backends", nargs="+", default=["dense", "streaming"],
                        choices=["dense", "streaming"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flagship", action="store_true", default=True,
                        help="also run the 100k-device 1k-step streaming cell")
    parser.add_argument("--no-flagship", dest="flagship", action="store_false")
    parser.add_argument("--flagship-devices", type=int, default=100_000)
    parser.add_argument("--flagship-steps", type=int, default=1_000)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI acceptance smoke instead of the sweep")
    parser.add_argument("--cell", type=str, default=None,
                        help=argparse.SUPPRESS)  # internal: one subprocess cell
    args = parser.parse_args(argv)
    if args.cell is not None:
        print("@@CELL " + json.dumps(run_cell(json.loads(args.cell))))
        return 0
    if args.smoke:
        return run_smoke(args)
    return run_sweep(args)


if __name__ == "__main__":
    raise SystemExit(main())
