"""Hot-path overhaul benchmark: reference vs optimized engine paths.

The perf pass (DESIGN.md §9) keeps the pre-optimization implementation
of every hot path alive behind :mod:`repro.hotpath`; this benchmark
runs the same fixed-seed workload down both paths and reports

- per-phase wall time (plan / execute / finish / sync / eval) from the
  :class:`~repro.hfl.telemetry.TelemetryRecorder` phase accounting,
- end-to-end serial seconds and the speedup optimized/reference,
- whether the two histories are **bit-identical** (they must be — a
  speedup bought with a different answer is a bug, not a win).

Standalone (records the committed baseline)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --json benchmarks/results/BENCH_hotpath.json

CI smoke mode (cheap, asserts the bit-identity contract end to end)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke

which checks that (1) the flat-buffer parameter aliasing is live and
survives pickle/deepcopy (the pool-worker contract) with the fused SGD
step bit-identical to the reference update, (2) the optimized
(aliased + batched) path reproduces the reference history exactly on
both executor backends, with every CNN step stacking its
participants into one pass and every edge round of it holding at
least ``MIN_CNN_STACK`` devices (read from the telemetry's
``num_participants``), and (3) the existing checkpoint kill/resume
determinism contract still holds on the optimized path.
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

from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.trainer import TrainingResult
from repro.hotpath import hotpath_disabled

#: The two timed workloads: the conv one exercises the im2col/col2im
#: workspaces, the dense one the membership index / fused eval / flat
#: buffer reuse in (nearly) isolation.
WORKLOADS = ("cnn", "mlp")

#: The smoke's CNN cell must give every edge round at least this many
#: participants, so the stacked conv path runs wide in every step —
#: and still does in a step that falls back to one stack per round.
MIN_CNN_STACK = 3


def workload_config(args, workload: str):
    if workload == "cnn":
        return PRESETS["mnist-bench"].with_overrides(
            num_devices=args.devices,
            num_edges=args.edges,
            num_steps=args.steps,
            samples_per_device=30,
            test_samples=200,
            trace_kind="markov",
            seed=args.seed,
        )
    return PRESETS["blobs-bench"].with_overrides(
        num_devices=4 * args.devices,
        num_edges=args.edges,
        num_steps=2 * args.steps,
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


def timed_once(config, sampler: str):
    """One timed run; returns (seconds, result, phases)."""
    telemetry = TelemetryRecorder()
    start = time.perf_counter()
    result = run_single(config, sampler, telemetry=telemetry)
    elapsed = time.perf_counter() - start
    return elapsed, result, telemetry.phase_summary()


def timed_pair(config, sampler: str, repeats: int):
    """Best-of-``repeats`` for the reference and optimized paths.

    The two paths are *interleaved* (ref, opt, ref, opt, …) rather than
    run as two back-to-back blocks, so on a noisy shared host both
    sample the same load regime and the reported speedup is not an
    artifact of when each block happened to run.
    """
    best_ref = None
    best_opt = None
    for _ in range(repeats):
        with hotpath_disabled():
            ref = timed_once(config, sampler)
        if best_ref is None or ref[0] < best_ref[0]:
            best_ref = ref
        opt = timed_once(config, sampler)
        if best_opt is None or opt[0] < best_opt[0]:
            best_opt = opt
    return best_ref, best_opt


def print_phase_table(reference: Dict, optimized: Dict) -> None:
    phases = sorted(set(reference) | set(optimized))
    print(f"{'phase':<10}{'reference s':>13}{'optimized s':>13}{'speedup':>9}")
    for phase in phases:
        ref_s = reference.get(phase, {}).get("seconds", 0.0)
        opt_s = optimized.get(phase, {}).get("seconds", 0.0)
        ratio = f"{ref_s / opt_s:>9.2f}" if opt_s > 0 else f"{'-':>9}"
        print(f"{phase:<10}{ref_s:>13.4f}{opt_s:>13.4f}{ratio}")


def run_bench(args) -> int:
    rows: List[Dict] = []
    for workload in WORKLOADS:
        config = workload_config(args, workload)
        print(
            f"[{workload}] {config.num_devices} devices / {config.num_edges} "
            f"edges / {config.num_steps} steps / sampler={args.sampler} / "
            f"repeats={args.repeats}"
        )
        reference, optimized = timed_pair(config, args.sampler, args.repeats)
        ref_s, ref_result, ref_phases = reference
        opt_s, opt_result, opt_phases = optimized
        same = identical(ref_result, opt_result)
        print_phase_table(ref_phases, opt_phases)
        print(
            f"{'end-to-end':<10}{ref_s:>13.4f}{opt_s:>13.4f}"
            f"{ref_s / opt_s:>9.2f}  identical={same}"
        )
        if not same:
            print(
                "FATAL: optimized history diverged from the reference path",
                file=sys.stderr,
            )
            return 1
        rows.append(
            {
                "workload": workload,
                "devices": config.num_devices,
                "edges": config.num_edges,
                "steps": config.num_steps,
                "sampler": args.sampler,
                "reference": {"seconds": ref_s, "phases": ref_phases},
                "optimized": {"seconds": opt_s, "phases": opt_phases},
                "speedup": ref_s / opt_s,
                "identical": same,
            }
        )

    if args.json is not None:
        report = {
            "seed": args.seed,
            "repeats": args.repeats,
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


def check_alias_identity(seed: int) -> bool:
    """Reference-vs-aliased identity at the nn layer.

    Asserts the flat-buffer aliasing invariants the engine relies on:
    parameters view into the canonical buffer, the fused
    ``loss_and_grad(sgd_lr=...)`` step matches the reference
    grad-copy-then-load update bit for bit, and pickle round trips
    re-alias into a private buffer (what process-pool workers do).
    """
    import copy
    import pickle

    from repro.nn.architectures import build_mlp

    rng = np.random.default_rng(seed)
    model = build_mlp(16, hidden=(12,), rng=rng)
    flat = model.flat_view()
    if not all(np.shares_memory(p.value, flat) for p in model.parameters()):
        print("FATAL: parameters are not views into the flat buffer",
              file=sys.stderr)
        return False

    x = rng.normal(size=(8, 16))
    y = rng.integers(0, 10, size=8)
    twin = copy.deepcopy(model)
    ref_flat = twin.flat_copy()
    ref_loss, ref_grad = twin.loss_and_grad(x, y)
    ref_flat -= 0.1 * ref_grad
    twin.load_flat(ref_flat)
    fused_loss, fused_grad = model.loss_and_grad(x, y, sgd_lr=0.1)
    if not (
        fused_loss == ref_loss
        and np.array_equal(fused_grad, ref_grad)
        and np.array_equal(model.flat_copy(), twin.flat_copy())
    ):
        print("FATAL: fused SGD step diverged from the reference update",
              file=sys.stderr)
        return False

    clone = pickle.loads(pickle.dumps(model))
    if not (
        np.array_equal(clone.flat_copy(), model.flat_copy())
        and not np.shares_memory(clone.flat_view(), model.flat_view())
        and all(
            np.shares_memory(p.value, clone.flat_view())
            for p in clone.parameters()
        )
    ):
        print("FATAL: pickled model did not re-alias into a private buffer",
              file=sys.stderr)
        return False
    print("        ok: aliasing live, fused step identical, copies re-alias")
    return True


def run_smoke(args) -> int:
    """The CI bit-identity smoke over both timed workloads."""
    print("[smoke/nn] flat-buffer aliasing identity ...")
    if not check_alias_identity(args.seed):
        return 1
    for workload in WORKLOADS:
        config = workload_config(args, workload)
        print(
            f"[smoke/{workload}] reference vs optimized on "
            "serial/process ..."
        )
        with hotpath_disabled():
            reference = run_single(config, args.sampler)
        telemetry = TelemetryRecorder()
        optimized = {
            "serial": run_single(config, args.sampler, telemetry=telemetry)
        }
        optimized["process"] = run_single(
            config.with_overrides(executor="process", num_workers=2),
            args.sampler,
        )
        for executor, result in optimized.items():
            if not identical(reference, result):
                print(
                    f"FATAL: optimized {executor} history diverged from the "
                    "reference path",
                    file=sys.stderr,
                )
                return 1
        print("        ok: both optimized backends match the reference bit for bit")
        stacked = [r.num_participants for r in telemetry.records]
        per_step: Dict[int, int] = {}
        for record in telemetry.records:
            per_step[record.t] = per_step.get(record.t, 0) + record.num_participants
        steps = sorted(per_step.values())
        print(
            f"        steps stack {steps[0]}..{steps[-1]} devices "
            f"(edge rounds of {min(stacked)}..{max(stacked)})"
        )
        if workload == "cnn" and min(stacked) < MIN_CNN_STACK:
            # A round of one or two devices barely exercises the stacked
            # Conv2d/MaxPool2d twins when a step falls back to one stack
            # per round; more devices per edge fixes it.
            print(
                f"FATAL: a CNN edge round held {min(stacked)} devices "
                f"(< {MIN_CNN_STACK}); raise --devices or lower --edges",
                file=sys.stderr,
            )
            return 1
        for phase, stats in telemetry.phase_summary().items():
            print(
                f"        phase {phase:<8} {stats['seconds']:>9.4f}s "
                f"({100 * stats['share']:5.1f}%)"
            )

    print("[smoke] checkpoint kill/resume on the optimized path ...")
    config = workload_config(args, "mlp")
    kill_at = config.num_steps // 2 + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "checkpoint.json")
        uninterrupted = run_single(
            config.with_overrides(checkpoint_every=kill_at, checkpoint_path=path),
            args.sampler,
        )
        resumed = run_single(config, args.sampler, resume_from=path)
    if not identical(uninterrupted, resumed):
        print("FATAL: resumed run diverged from uninterrupted run", file=sys.stderr)
        return 1
    print(f"        ok: killed at step {kill_at}, resume replayed exactly")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # 20 devices on 2 edges: every CNN edge round holds >= MIN_CNN_STACK.
    parser.add_argument("--devices", type=int, default=20)
    parser.add_argument("--edges", type=int, default=2)
    parser.add_argument("--steps", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sampler", default="mach")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per path (best is kept)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the machine-readable report here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI bit-identity smoke instead of the timed benchmark",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    return run_bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
