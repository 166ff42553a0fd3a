"""Performance regression tracking against the committed baselines.

The repo ships measured baselines under ``benchmarks/results/`` —
six ad-hoc ``BENCH_*.json`` files with per-benchmark shapes.  This tool
adapts each into the canonical :mod:`perf_schema` cell list and diffs a
fresh report against it with a configurable relative tolerance, so "did
this PR regress the engine?" becomes one command instead of six manual
comparisons.

Modes::

    # list the known baselines and their canonical cells
    PYTHONPATH=src python benchmarks/perf_track.py --list

    # diff two reports (canonical perf_schema files or committed
    # BENCH_*.json baselines; adapters are applied automatically)
    PYTHONPATH=src python benchmarks/perf_track.py \
        --fresh /tmp/fresh.json --baseline benchmarks/results/BENCH_obs.json

    # CI gate: re-run the obs workload and compare the
    # host-insensitive cells (bit-identity, sink volumes, profiler
    # overhead bound) against the committed BENCH_obs.json
    PYTHONPATH=src python benchmarks/perf_track.py --smoke

Metric direction is inferred from the name: ``*_seconds``, ``*_rss_mb``,
``overhead`` and ``steps_to_target`` regress upward; ``speedup``,
``steps_per_second`` and ``*accuracy`` regress downward.  Timing cells
move with the host, so ``--smoke`` only gates on deterministic metrics
(marked ``host_insensitive`` by the adapters) plus an absolute overhead
bound on the fresh run.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_schema import (  # noqa: E402
    SCHEMA_VERSION,
    PerfCell,
    load_report,
    make_report,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

# Metrics that do not depend on host speed: safe to gate in CI.
HOST_INSENSITIVE = (
    "identical",
    "sinks_identical",
    "profiled_identical",
    "events",
    "spans",
    "audit_decisions",
    "metric_families",
    "final_accuracy",
    "best_accuracy",
    "steps_to_target",
    "devices_joined",
    "devices_left",
    "late_admits",
    "late_drops",
    "sublinear",
    "evals",
)

_LOWER_IS_BETTER_SUFFIXES = (
    "_seconds",
    "_rss_mb",
    "seconds",
    "overhead",
    "steps_to_target",
    "late_drops",
)
_HIGHER_IS_BETTER_SUFFIXES = (
    "speedup",
    "steps_per_second",
    "accuracy",
    "identical",
    "sublinear",
)


def metric_direction(name: str) -> int:
    """+1 when an increase is a regression, -1 when a decrease is."""
    for suffix in _HIGHER_IS_BETTER_SUFFIXES:
        if name.endswith(suffix):
            return -1
    for suffix in _LOWER_IS_BETTER_SUFFIXES:
        if name.endswith(suffix):
            return 1
    return 1  # conservative default: bigger numbers are worse


# ---------------------------------------------------------------------------
# Adapters: committed ad-hoc BENCH_*.json -> canonical cells
# ---------------------------------------------------------------------------


def _adapt_obs(payload: dict) -> List[PerfCell]:
    cells = []
    for row in payload["results"]:
        name = f"obs/{row['sampler']}/{row['devices']}dev"
        volume = row.get("sink_volume", {})
        cells.append(PerfCell(name, {
            "baseline_seconds": row["baseline_seconds"],
            "observed_seconds": row["observed_seconds"],
            "overhead": row["overhead"],
            "identical": row["identical"],
            "events": volume.get("events"),
            "spans": volume.get("spans"),
            "audit_decisions": volume.get("audit_decisions"),
            "metric_families": volume.get("metric_families"),
            "sinks_seconds": row.get("sinks_seconds"),
            "sinks_overhead": row.get("sinks_overhead"),
            "sinks_identical": row.get("sinks_identical"),
            "profiler_overhead": row.get("profiler_overhead"),
            "profiled_seconds": row.get("profiled_seconds"),
            "profiled_identical": row.get("profiled_identical"),
        }))
    return cells


def _adapt_scale(payload: dict) -> List[PerfCell]:
    cells = []
    for row in payload["results"]:
        name = f"scale/{row['sampler']}/{row['backend']}/{row['devices']}dev"
        cells.append(PerfCell(name, {
            "train_seconds": row["train_seconds"],
            "setup_seconds": row["setup_seconds"],
            "steps_per_second": row["steps_per_second"],
            "final_accuracy": row["final_accuracy"],
            "peak_rss_mb": row["peak_rss_mb"],
        }))
    for row in payload.get("scaling", []):
        name = f"scale/{row['sampler']}/{row['backend']}/scaling"
        cells.append(PerfCell(name, {
            "train_time_growth": row["train_time_growth"],
            "sublinear": row["sublinear"],
        }))
    flagship = payload.get("flagship")
    if flagship:
        cells.append(PerfCell("scale/flagship", {
            "train_seconds": flagship["train_seconds"],
            "steps_per_second": flagship["steps_per_second"],
            "peak_rss_mb": flagship["peak_rss_mb"],
            "final_accuracy": flagship["final_accuracy"],
        }))
    return cells


def _adapt_runtime(payload: dict) -> List[PerfCell]:
    return [
        PerfCell(f"runtime/{row['backend']}/{row['workers']}w", {
            "seconds": row["seconds"],
            "speedup": row["speedup"],
            "identical": row["identical"],
        })
        for row in payload["results"]
    ]


def _adapt_topology(payload: dict) -> List[PerfCell]:
    return [
        PerfCell(
            f"topology/{row['topology']}/{row['aggregation']}/{row['sampler']}",
            {
                "steps_to_target": row["steps_to_target"],
                "final_accuracy": row["final_accuracy"],
                "best_accuracy": row["best_accuracy"],
                "seconds": row["seconds"],
            },
        )
        for row in payload["results"]
    ]


def _adapt_churn(payload: dict) -> List[PerfCell]:
    return [
        PerfCell(
            f"churn/{row['churn']}/stale{row['max_staleness']}/{row['sampler']}",
            {
                "final_accuracy": row["final_accuracy"],
                "best_accuracy": row["best_accuracy"],
                "devices_joined": row["devices_joined"],
                "devices_left": row["devices_left"],
                "late_admits": row["late_admits"],
                "late_drops": row["late_drops"],
            },
        )
        for row in payload["results"]
    ]


ADAPTERS: Dict[str, Callable[[dict], List[PerfCell]]] = {
    "BENCH_obs.json": _adapt_obs,
    "BENCH_scale.json": _adapt_scale,
    "BENCH_runtime.json": _adapt_runtime,
    "BENCH_topology.json": _adapt_topology,
    "BENCH_churn.json": _adapt_churn,
}


def load_any(path: Path) -> Tuple[str, List[PerfCell]]:
    """Load canonical reports directly, adapt known ad-hoc baselines."""
    payload = json.loads(path.read_text())
    if payload.get("schema_version") == SCHEMA_VERSION:
        report = load_report(path)
        return report["workload"], report["cells"]
    adapter = ADAPTERS.get(path.name)
    if adapter is None:
        raise ValueError(
            f"{path}: not a schema_version={SCHEMA_VERSION} report and no "
            f"adapter is registered for {path.name!r} "
            f"(known: {sorted(ADAPTERS)})"
        )
    return path.stem, adapter(payload)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def compare_cells(
    baseline: List[PerfCell],
    fresh: List[PerfCell],
    tolerance: float,
    metrics_filter: Optional[Tuple[str, ...]] = None,
) -> List[dict]:
    """Diff two cell lists; returns one row per (cell, metric).

    ``status`` is ``ok`` (within tolerance), ``improved``, ``regressed``
    or ``missing`` (cell/metric present in the baseline but absent from
    the fresh report — itself a regression in coverage).  Cells only in
    the fresh report are reported as ``new`` and never fail the diff.
    """
    baseline_by_name = {cell.name: cell for cell in baseline}
    fresh_by_name = {cell.name: cell for cell in fresh}
    rows: List[dict] = []
    for name, base_cell in sorted(baseline_by_name.items()):
        fresh_cell = fresh_by_name.get(name)
        for metric, base_value in sorted(base_cell.metrics.items()):
            if metrics_filter is not None and metric not in metrics_filter:
                continue
            row = {
                "cell": name,
                "metric": metric,
                "baseline": base_value,
                "fresh": None,
                "change": None,
                "status": "missing",
            }
            if fresh_cell is not None and metric in fresh_cell.metrics:
                fresh_value = fresh_cell.metrics[metric]
                row["fresh"] = fresh_value
                scale = abs(base_value) if base_value else 1.0
                change = (fresh_value - base_value) / scale
                row["change"] = change
                signed = change * metric_direction(metric)
                if signed > tolerance:
                    row["status"] = "regressed"
                elif signed < -tolerance:
                    row["status"] = "improved"
                else:
                    row["status"] = "ok"
            rows.append(row)
    for name in sorted(set(fresh_by_name) - set(baseline_by_name)):
        rows.append({
            "cell": name,
            "metric": None,
            "baseline": None,
            "fresh": None,
            "change": None,
            "status": "new",
        })
    return rows


def print_diff(rows: List[dict], show_ok: bool = False) -> None:
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
        if row["status"] == "ok" and not show_ok:
            continue
        change = (
            f"{100 * row['change']:+.1f}%" if row["change"] is not None else "-"
        )
        print(
            f"{row['status']:>9}  {row['cell']}::{row['metric']}  "
            f"baseline={row['baseline']} fresh={row['fresh']} ({change})"
        )
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"[perf_track] {summary or 'no overlapping cells'}")


# ---------------------------------------------------------------------------
# CLI modes
# ---------------------------------------------------------------------------


def run_list() -> int:
    for name in sorted(ADAPTERS):
        path = RESULTS_DIR / name
        if not path.exists():
            print(f"{name}: MISSING from {RESULTS_DIR}")
            continue
        workload, cells = load_any(path)
        print(f"{name}: workload={workload}, {len(cells)} cells")
        for cell in cells:
            print(f"    {cell.name}: {', '.join(sorted(cell.metrics))}")
    return 0


def run_diff(args) -> int:
    _, baseline_cells = load_any(args.baseline)
    _, fresh_cells = load_any(args.fresh)
    metrics_filter = HOST_INSENSITIVE if args.host_insensitive else None
    rows = compare_cells(
        baseline_cells, fresh_cells, args.tolerance, metrics_filter
    )
    print_diff(rows, show_ok=args.show_ok)
    regressions = [
        r for r in rows if r["status"] in ("regressed", "missing")
    ]
    if regressions:
        print(
            f"FATAL: {len(regressions)} regression(s) beyond the "
            f"{100 * args.tolerance:.0f}% tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


def run_smoke(args) -> int:
    """CI gate: fresh obs measurement vs committed BENCH_obs.json.

    Timing cells swing with the shared runner, so the gate compares
    only host-insensitive metrics (bit-identity flags and sink
    volumes, which are functions of the workload alone) and bounds the
    fresh profiler/obs overhead absolutely rather than relatively.
    """
    import bench_obs

    baseline_path = RESULTS_DIR / "BENCH_obs.json"
    _, baseline_cells = load_any(baseline_path)

    bench_args = bench_obs.main_parser().parse_args([])
    bench_args.repeats = args.repeats
    print(
        f"[perf_track] fresh obs measurement "
        f"({bench_args.devices} devices, {bench_args.steps} steps, "
        f"repeats={bench_args.repeats}) ..."
    )
    with tempfile.TemporaryDirectory() as tmp:
        row = bench_obs.measure(bench_args, Path(tmp))
    fresh_cells = _adapt_obs({"results": [
        {k: v for k, v in row.items() if not k.startswith("_")}
    ]})

    rows = compare_cells(
        baseline_cells, fresh_cells, args.tolerance,
        metrics_filter=HOST_INSENSITIVE,
    )
    print_diff(rows, show_ok=True)

    failures = [r for r in rows if r["status"] in ("regressed", "missing")]
    if row["sinks_overhead"] > args.max_overhead:
        print(
            f"FATAL: fresh sink overhead {100 * row['sinks_overhead']:.1f}% "
            f"exceeds the {100 * args.max_overhead:.0f}% smoke bound",
            file=sys.stderr,
        )
        return 1
    profiler_overhead = row.get("profiler_overhead")
    if profiler_overhead is not None:
        print(
            f"[perf_track] profiler overhead {100 * profiler_overhead:+.2f}% "
            f"(bound {100 * args.max_overhead:.0f}%)"
        )
        if profiler_overhead > args.max_overhead:
            print(
                f"FATAL: profiler overhead {100 * profiler_overhead:.1f}% "
                f"exceeds the {100 * args.max_overhead:.0f}% smoke bound",
                file=sys.stderr,
            )
            return 1
    if failures:
        print(
            f"FATAL: {len(failures)} deterministic metric(s) diverged from "
            f"{baseline_path.name}",
            file=sys.stderr,
        )
        return 1
    print("[perf_track] ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="list known baselines and their cells")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate against BENCH_obs.json")
    parser.add_argument("--fresh", type=Path, default=None,
                        help="fresh report to diff (canonical or BENCH_*)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline report to diff against")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative tolerance before a change counts as a "
                             "regression (default: 0.10)")
    parser.add_argument("--max-overhead", type=float, default=0.5,
                        help="absolute obs/profiler overhead bound asserted "
                             "by --smoke (default: 0.5, lenient for CI)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats for the --smoke fresh run")
    parser.add_argument("--host-insensitive", action="store_true",
                        help="restrict an offline diff to host-insensitive "
                             "metrics")
    parser.add_argument("--show-ok", action="store_true",
                        help="also print within-tolerance rows")
    args = parser.parse_args(argv)
    if args.list:
        return run_list()
    if args.smoke:
        return run_smoke(args)
    if args.fresh is not None and args.baseline is not None:
        return run_diff(args)
    parser.error("pick a mode: --list, --smoke, or --fresh/--baseline")
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
