"""Cross-topology benchmark: MACH vs its baselines on every topology.

The topology layer (DESIGN.md §12) makes the sync step a config choice:
the paper's cloud/edge tree (``hierarchical`` + ``ipw``), cluster FL
with inter-cluster model mixing (``clustered`` + ``cluster_mix``), and
cloudless gossip averaging (``gossip`` + ``gossip_avg``).  This
benchmark runs the sampler comparison across all three and reports, per
(topology, sampler): steps-to-target, final and best accuracy, and
wall-clock — the cross-scenario table the ROADMAP's scenario-diversity
item asks for.

Standalone (records the committed baseline)::

    PYTHONPATH=src python benchmarks/bench_topology.py \
        --json benchmarks/results/BENCH_topology.json

CI smoke mode (cheap, asserts the topology contracts end to end)::

    PYTHONPATH=src python benchmarks/bench_topology.py --smoke

which checks that (1) the clustered and gossip modes run end-to-end
with seeded determinism — two same-seed runs agree exactly, on the
serial and process backends — and produce sane (finite, in-[0,1])
accuracy, and (2) checkpoint kill/resume replays exactly under every
topology.  That the default ``hierarchical`` + ``ipw`` pair equals the
pre-topology trainer on both executors is pinned by the
``small-hierarchical-ipw`` golden fingerprint cells (``tests/golden``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.experiments.config import PRESETS, SAMPLER_ABBREVIATIONS
from repro.experiments.runner import run_single
from repro.hfl.trainer import TrainingResult
from repro.topology import DEFAULT_STRATEGY, TOPOLOGY_KINDS

#: Samplers compared on every topology (MACH + the two strongest
#: baselines keeps the timed matrix 3×3).
SAMPLERS = ("mach", "uniform", "class_balance")


def topology_overrides(topology: str) -> Dict[str, object]:
    """Scenario overrides selecting one topology with its defaults."""
    overrides: Dict[str, object] = {"topology": topology}
    if topology == "clustered":
        overrides["num_clusters"] = None  # ceil(sqrt(E))
        overrides["cluster_mixing_weight"] = 0.25
    if topology == "gossip":
        overrides["gossip_degree"] = 2
    return overrides


def base_config(args):
    return PRESETS["blobs-bench"].with_overrides(
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
    )


def sane(result: TrainingResult) -> bool:
    return (
        len(result.history.accuracy) > 0
        and all(np.isfinite(a) and 0.0 <= a <= 1.0 for a in result.history.accuracy)
        and all(np.isfinite(l) for l in result.history.loss)
    )


# ---------------------------------------------------------------------------
# Timed benchmark


def run_bench(args) -> int:
    rows: List[Dict] = []
    print(
        f"{'topology':<14}{'sampler':<10}{'steps-to-target':>16}"
        f"{'final acc':>11}{'best acc':>10}{'seconds':>9}"
    )
    for topology in TOPOLOGY_KINDS:
        config = base_config(args).with_overrides(**topology_overrides(topology))
        for sampler in SAMPLERS:
            start = time.perf_counter()
            result = run_single(config, sampler)
            elapsed = time.perf_counter() - start
            reached = result.time_to_accuracy(config.target_accuracy)
            label = SAMPLER_ABBREVIATIONS.get(sampler, sampler)
            reached_str = f"{reached}" if reached is not None else "not reached"
            print(
                f"{topology:<14}{label:<10}{reached_str:>16}"
                f"{result.history.final_accuracy():>11.3f}"
                f"{result.history.best_accuracy():>10.3f}{elapsed:>9.2f}"
            )
            if not sane(result):
                print(
                    f"FATAL: {topology}/{sampler} produced a non-finite "
                    "or out-of-range history",
                    file=sys.stderr,
                )
                return 1
            rows.append(
                {
                    "topology": topology,
                    "aggregation": DEFAULT_STRATEGY[topology],
                    "sampler": sampler,
                    "steps_to_target": reached,
                    "final_accuracy": result.history.final_accuracy(),
                    "best_accuracy": result.history.best_accuracy(),
                    "mean_participants": result.mean_participants_per_step,
                    "seconds": elapsed,
                }
            )

    if args.json is not None:
        report = {
            "seed": args.seed,
            "devices": args.devices,
            "edges": args.edges,
            "steps": args.steps,
            "target_accuracy": base_config(args).target_accuracy,
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


# ---------------------------------------------------------------------------
# CI smoke


def smoke_alternate_topologies(args) -> bool:
    """Clustered + gossip: seeded determinism and a sane history."""
    for topology in ("clustered", "gossip"):
        config = base_config(args).with_overrides(**topology_overrides(topology))
        print(f"[smoke/{topology}] seeded determinism on serial/process ...")
        first = run_single(config, "mach")
        again = run_single(config, "mach")
        pooled = run_single(
            config.with_overrides(executor="process", num_workers=2), "mach"
        )
        if not (identical(first, again) and identical(first, pooled)):
            print(
                f"FATAL: {topology} runs are not deterministic for a fixed seed",
                file=sys.stderr,
            )
            return False
        if not sane(first):
            print(
                f"FATAL: {topology} history is non-finite or out of range",
                file=sys.stderr,
            )
            return False
        print(
            f"        ok: exact replay, final_acc="
            f"{first.history.final_accuracy():.3f}"
        )
    return True


def smoke_kill_resume(args) -> bool:
    """Checkpoint kill/resume must replay exactly under every topology."""
    for topology in TOPOLOGY_KINDS:
        config = base_config(args).with_overrides(**topology_overrides(topology))
        # Kill on a sync/eval boundary: a run's final step always
        # evaluates, so an unaligned kill would bake an extra eval into
        # the checkpointed history (see tests/faults/test_checkpoint.py).
        kill_at = max(
            config.sync_interval,
            (config.num_steps // 2 // config.sync_interval)
            * config.sync_interval,
        )
        print(f"[smoke/{topology}] kill at step {kill_at} + resume ...")
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "checkpoint.json")
            uninterrupted = run_single(config, "mach")
            run_single(
                config.with_overrides(
                    num_steps=kill_at,
                    checkpoint_every=kill_at,
                    checkpoint_path=path,
                ),
                "mach",
            )
            resumed = run_single(config, "mach", resume_from=path)
        if not identical(uninterrupted, resumed):
            print(
                f"FATAL: {topology} resume diverged from the uninterrupted run",
                file=sys.stderr,
            )
            return False
        print("        ok: resume replayed exactly")
    return True


def run_smoke(args) -> int:
    checks = (smoke_alternate_topologies, smoke_kill_resume)
    for check in checks:
        if not check(args):
            return 1
    print("[smoke] all topology contracts hold")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--devices", type=int, default=40)
    parser.add_argument("--edges", type=int, default=4)
    parser.add_argument("--steps", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the machine-readable report here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI contract smoke instead of the timed benchmark "
             "(cross-topology determinism, kill/resume)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.devices = min(args.devices, 16)
        args.edges = min(args.edges, 4)
        args.steps = min(args.steps, 12)
        return run_smoke(args)
    return run_bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
