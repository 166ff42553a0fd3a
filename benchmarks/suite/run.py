"""The repo benchmark: four HFL workloads, end-to-end and per-layer metrics.

One workload, as ``BENCHMARK.json``'s command runs it (the last line of
standard output is one JSON object)::

    python3 benchmarks/suite/run.py --workload mnist-cnn --seed 0 \
        --seconds 12 --trace 0

Every workload, as tables, optionally repeated and saved as a report::

    python3 benchmarks/suite/run.py [--trace 1] [--repeats 3] [--out r.json]

Toy sizes, every correctness check, in well under a minute::

    python3 benchmarks/suite/run.py --smoke

Two reports against the directions and bounds in ``BENCHMARK.json``
(either side may be a comma-separated list of reports, pooled)::

    python3 benchmarks/suite/run.py compare A.json B.json

Each run of a workload happens in a fresh ``child.py`` process with
``PYTHONHASHSEED=0``; ``--trace 1`` adds a second, traced process whose
model must hash the same as the untraced one.  End-to-end metrics never
come from the traced process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "suite"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPORT_SCHEMA = "repro-bench-suite/1"
#: Hash seed pinned in every workload process: the synthetic image
#: datasets draw class prototypes from a salted ``hash()``, so without
#: it two same-seed runs train on different data.
HASH_SEED = "0"
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "time_to_target_s": "s",
    "steps_to_target": "steps",
    "final_accuracy": "fraction",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", ".coverage", ".overhead")):
        return "fraction"
    return "count"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload ------------------------------------------------------------


def run_child(spec: dict, deadline: float) -> dict:
    """Run ``child.py`` in its own session; kill the whole group on timeout."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    WORK.mkdir(parents=True, exist_ok=True)
    state_dir = Path(tempfile.mkdtemp(prefix=spec["workload"] + "-", dir=WORK))
    spec = dict(spec, state_dir=str(state_dir))
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{spec['workload']}: exceeded the time limit")
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if child.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise RuntimeError(f"{spec['workload']}: child exited {child.returncode}\n{tail}")
    return json.loads(stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    """Digest of the engine sources, so edited code starts a fresh record."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _sha_cache_check(key: str, sha: str) -> bool:
    """Same-seed runs of the same sources must agree on the final model."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "model_sha256.json"
    cache = json.loads(path.read_text()) if path.exists() else {}
    known = cache.setdefault(key, sha)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return known == sha


def measure(name: str, seed: int, seconds: float, trace: bool, repeats: int,
            smoke: bool, deadline: Optional[float] = None) -> dict:
    """Untraced runs (and one traced run) of one workload, checked."""
    workload = WORKLOADS[name]
    steps = workload.smoke["num_steps"] if smoke else workload.steps(seconds)
    spec = {"workload": name, "seed": seed, "steps": steps, "setups": workload.setups,
            "trace": False, "smoke": smoke}
    key = f"{name}|seed={seed}|steps={steps}|smoke={smoke}|src={_source_digest()}"
    result = {"steps": steps, "runs": [], "checks": {}, "attempted": 0, "failed": 0}

    def child(spec: dict) -> Optional[dict]:
        limit = deadline if deadline is not None else time.monotonic() + TIME_LIMIT_S
        try:
            out = run_child(spec, limit)
        except RuntimeError as error:
            print(error, file=sys.stderr)
            result["checks"]["child_ran"] = False
            result["attempted"] += steps
            result["failed"] += steps
            return None
        result["attempted"] += out["attempted"]
        result["failed"] += out["failed"]
        for check, ok in out["checks"].items():
            result["checks"][check] = result["checks"].get(check, True) and ok
        result["checks"]["sha_deterministic"] = result["checks"].get(
            "sha_deterministic", True
        ) and _sha_cache_check(key, out["model_sha256"])
        return out

    for _ in range(repeats):
        out = child(spec)
        if out is not None:
            result["runs"].append(out)
    if trace and result["runs"]:
        traced = child(dict(spec, trace=True, setups=1))
        if traced is not None:
            layers = spans.layer_metrics(traced["spans"])
            layers.update(traced.get("service", {}))
            untraced_wall = statistics.median(r["train_wall_s"] for r in result["runs"])
            layers["trace.overhead"] = traced["train_wall_s"] / untraced_wall - 1.0
            result["per_layer"] = layers
    if result["runs"]:
        first = result["runs"][0]
        result["model_sha256"] = first["model_sha256"]
        result["versions"] = first["versions"]
        result["hash_seed"] = first["hash_seed"]
    result["correct"] = bool(result["runs"]) and all(result["checks"].values())
    error_rate = (
        result["failed"] / result["attempted"] if result["correct"] else 1.0
    )
    result["end_to_end"] = {}
    for metric, unit in END_TO_END_UNITS.items():
        runs = [
            error_rate if metric == "error_rate" else r["metrics"][metric]
            for r in result["runs"]
        ]
        runs = [v for v in runs if v is not None]
        result["end_to_end"][metric] = {
            "unit": unit,
            "median": statistics.median(runs) if runs else None,
            "runs": runs,
        }
    return result


# -- printing ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_tables(name: str, result: dict, benchmark: dict) -> None:
    gated = {m["name"] for m in benchmark["end_to_end"]}
    print(f"== {name}: {result['steps']} steps, PYTHONHASHSEED="
          f"{result.get('hash_seed')}, model {str(result.get('model_sha256'))[:16]}")
    for metric, entry in result["end_to_end"].items():
        mark = "" if metric in gated else "   (reported, not gated)"
        print(f"  {metric:<34} {_fmt(entry['median']):>14} {entry['unit']}{mark}")
    checks = ", ".join(f"{c} {'ok' if ok else 'FAILED'}" for c, ok in result["checks"].items())
    print(f"  checks: {checks}")
    if "per_layer" in result:
        listed = {m["name"] for m in benchmark["per_layer"]}
        print("  per-layer (traced run; * = in BENCHMARK.json):")
        for metric, value in sorted(result["per_layer"].items()):
            star = "*" if metric in listed else " "
            print(f"   {star} {metric:<34} {_fmt(value):>14} {layer_unit(metric)}")


def result_line(result: dict, benchmark: dict, trace: bool) -> dict:
    metrics = {}
    if trace:
        layers = result.get("per_layer", {})
        for m in benchmark["per_layer"]:
            if m["name"] in layers:
                metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    else:
        for m in benchmark["end_to_end"]:
            value = result["end_to_end"][m["name"]]["median"]
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _git_revision() -> Optional[str]:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return revision + ("+dirty-src" if dirty else "")


# -- compare -----------------------------------------------------------------


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: List[float], change: List[float], better: str, bound: float) -> tuple:
    """``ok`` / ``improved`` / ``regressed`` / ``unresolved`` for one metric.

    The change is the relative move of the medians, signed so that
    positive is better.  When either side's spread exceeds the bound the
    medians cannot be told apart at that bound, unless every run of one
    side beats every run of the other.
    """
    a, b = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b - a) / abs(a) if a else 0.0
    noise = max(spread(base), spread(change))
    if noise > bound:
        if all(sign * (y - x) > 0 for x in base for y in change):
            return "improved", gain, noise
        if all(sign * (y - x) < 0 for x in base for y in change):
            return "regressed", gain, noise
        return "unresolved", gain, noise
    if gain < -bound:
        return "regressed", gain, noise
    if gain > bound:
        return "improved", gain, noise
    return "ok", gain, noise


def _pooled_runs(paths: str) -> Dict[str, Dict[str, List[float]]]:
    """Per-run metric values of one side, pooled over comma-separated reports."""
    pooled: Dict[str, Dict[str, List[float]]] = {}
    for path in paths.split(","):
        for name, result in json.loads(Path(path).read_text())["workloads"].items():
            for metric, entry in result["end_to_end"].items():
                pooled.setdefault(name, {}).setdefault(metric, []).extend(entry["runs"])
    return pooled


def compare(paths_a: str, paths_b: str) -> int:
    """Verdicts for every gated metric; each side may pool several reports,
    so interleaved runs (A, B, A, B, ...) can be compared."""
    benchmark = load_benchmark()
    a, b = _pooled_runs(paths_a), _pooled_runs(paths_b)
    regressed = False
    print(f"{'workload':<16} {'metric':<16} {'A':>12} {'B':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in (w for w in WORKLOADS if w in a and w in b):
        for m in benchmark["end_to_end"]:
            runs_a, runs_b = a[name][m["name"]], b[name][m["name"]]
            if not runs_a or not runs_b:
                print(f"{name:<16} {m['name']:<16} missing runs")
                continue
            label, gain, noise = verdict(runs_a, runs_b, m["better"], m["bound"])
            regressed |= label == "regressed"
            print(f"{name:<16} {m['name']:<16} {statistics.median(runs_a):>12.6g} "
                  f"{statistics.median(runs_b):>12.6g} {gain:>+8.1%} {noise:>7.1%} "
                  f"{m['bound']:>6.0%}  {label}")
    return 1 if regressed else 0


# -- entry point -------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json[,A2.json...] B.json[,B2.json...]",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and end with its JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload (medians are reported)")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, every check, traced and untraced")
    parser.add_argument("--out", help="write the report JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmark: engine sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    trace = bool(args.trace) or args.smoke

    if args.workload is not None:
        result = measure(args.workload, args.seed, seconds, trace, args.repeats,
                         args.smoke, deadline=time.monotonic() + TIME_LIMIT_S)
        print_tables(args.workload, result, benchmark)
        print(json.dumps(result_line(result, benchmark, trace)))
        return 0 if result["correct"] else 1

    started = time.monotonic()
    report = {
        "schema": REPORT_SCHEMA,
        "host": {"cpu_count": os.cpu_count(), "platform": platform.platform()},
        "git_revision": _git_revision(),
        "seed": args.seed,
        "hash_seed": HASH_SEED,
        "seconds": seconds,
        "repeats": args.repeats,
        "trace": trace,
        "smoke": args.smoke,
        "workloads": {},
    }
    for name in WORKLOADS:
        result = measure(name, args.seed, seconds, trace, args.repeats, args.smoke)
        print_tables(name, result, benchmark)
        report["host"].update(result.pop("versions", {}))
        del result["runs"]  # raw child output; the metrics keep every run's value
        report["workloads"][name] = result
    correct = all(w["correct"] for w in report["workloads"].values())
    print(f"suite: {'every check passed' if correct else 'CHECKS FAILED'} "
          f"in {time.monotonic() - started:.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
