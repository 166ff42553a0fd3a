"""Run one workload once, in this fresh process, and print its raw result.

``run.py`` starts this file with ``PYTHONHASHSEED=0`` and ``src`` on the
path; the spec is one JSON argument::

    {"workload": "mnist-cnn", "seed": 0, "steps": 200, "setups": 3,
     "trace": false, "smoke": false, "state_dir": ".bench_build/suite/x"}

The last line of standard output is one JSON object: the end-to-end
metrics, the correctness checks, the final model's SHA-256 and, when
traced, the per-layer metrics.  The engine is driven only through its
public surface: ``build_scenario``, ``HFLTrainer.steps()``, and for the
service ``runner serve`` plus ``ServiceClient``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter


class Round(NamedTuple):
    """One step outcome as the client saw it."""

    arrival: float
    steps_run: int
    accuracy: Optional[float]
    reached_target: bool
    seconds: float


def percentile(values: List[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (needs two or more values)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scenario(spec: dict):
    from repro.experiments.config import PRESETS

    workload = WORKLOADS[spec["workload"]]
    overrides = dict(workload.overrides, target_accuracy=workload.target_accuracy)
    if spec["smoke"]:
        overrides.update(workload.smoke)
    overrides.update(num_steps=spec["steps"], seed=spec["seed"])
    return PRESETS[workload.preset].with_overrides(**overrides), overrides


def round_metrics(step0: float, rounds: List[Round], num_steps: int) -> dict:
    """End-to-end step metrics and checks from the client's arrival times."""
    arrivals = [r.arrival for r in rounds]
    gaps = [b - a for a, b in zip([step0] + arrivals, arrivals)]
    wall = arrivals[-1] - step0
    reached = next((r for r in rounds if r.reached_target), None)
    accuracies = [r.accuracy for r in rounds if r.accuracy is not None]
    metrics = {
        "steps_per_s": len(rounds) / wall,
        "step_p50_ms": percentile(gaps, 50) * 1e3,
        "step_p95_ms": percentile(gaps, 95) * 1e3,
        "time_to_target_s": None if reached is None else reached.arrival - step0,
        "steps_to_target": None if reached is None else reached.steps_run,
        "final_accuracy": accuracies[-1] if accuracies else None,
    }
    checks = {
        "steps_complete": [r.steps_run for r in rounds]
        == list(range(1, num_steps + 1)),
        "target_reached": reached is not None,
    }
    return {"metrics": metrics, "checks": checks, "train_wall_s": wall,
            "attempted": num_steps, "failed": num_steps - len(rounds)}


def run_inprocess(spec: dict, config) -> dict:
    import numpy as np

    from repro.experiments.config import make_sampler
    from repro.experiments.runner import build_scenario, hfl_config_for
    from repro.hfl.trainer import HFLTrainer

    setup_s = []
    trainer = None
    for _ in range(spec["setups"]):
        if trainer is not None:
            trainer.close()
            trainer = None
            gc.collect()
        start = clock()
        devices, test, trace, model_factory = build_scenario(config, config.seed)
        trainer = HFLTrainer(
            model_factory=model_factory,
            device_datasets=devices,
            trace=trace,
            sampler=make_sampler("mach", config),
            config=hfl_config_for(config, config.seed),
            test_dataset=test,
        )
        setup_s.append(clock() - start)
        del devices, test, trace, model_factory

    rounds: List[Round] = []
    with trainer:
        step0 = clock()
        for outcome in trainer.steps(
            config.num_steps, target_accuracy=config.target_accuracy
        ):
            rounds.append(
                Round(clock(), outcome.steps_run, outcome.accuracy,
                      outcome.reached_target, outcome.seconds)
            )
        model = trainer.result().final_cloud_model
    out = round_metrics(step0, rounds, config.num_steps)
    out["metrics"]["setup_s"] = statistics.median(setup_s)
    out["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    out["checks"]["model_finite"] = bool(np.all(np.isfinite(model)))
    out["model_sha256"] = hashlib.sha256(model.tobytes()).hexdigest()
    return out


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def run_service(spec: dict, config, overrides: dict) -> dict:
    """Drive ``runner serve`` over HTTP: setup probes, then one full run.

    Each probe submits the workload's scenario, waits for its first
    round and stops it, so setup time is sampled several times per run.
    """
    from repro.service.client import ServiceClient

    state_dir = Path(spec["state_dir"])
    spans_path = state_dir / "spans.json"
    port = _free_port()
    serve_args = ["--port", str(port), "--state-dir", str(state_dir / "state")]
    if spec["trace"]:
        command = [sys.executable, str(HERE / "serve.py"), str(spans_path), *serve_args]
    else:
        command = [sys.executable, "-m", "repro.experiments.runner", "serve", *serve_args]
    requests: List[tuple] = []

    def timed(fn, *args, **kwargs):
        start = clock()
        try:
            value = fn(*args, **kwargs)
        except Exception:
            requests.append((clock() - start, False))
            raise
        requests.append((clock() - start, True))
        return value

    def submit():
        return timed(client.submit, preset=WORKLOADS[spec["workload"]].preset,
                     seed=config.seed, overrides=overrides)

    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
    setup_s = []
    with open(state_dir / "server.log", "wb") as log:
        launched = clock()
        server = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                if server.poll() is not None:
                    raise RuntimeError(f"server exited with {server.returncode}")
                if clock() - launched > 60:
                    raise TimeoutError("server not ready after 60 s")
                try:
                    client.api_version()
                    break
                except OSError:
                    time.sleep(0.02)
            ready_s = clock() - launched

            for _ in range(spec["setups"] - 1):
                submitted = clock()
                probe = submit()
                stream = client.stream(probe, follow=True)
                first = next(stream)
                setup_s.append(clock() - submitted - first.seconds)
                timed(client.stop, probe)
                for _ in stream:
                    pass

            submitted = clock()
            run_id = submit()
            rounds: List[Round] = []
            for r in client.stream(run_id, follow=True):
                rounds.append(Round(clock(), r.steps_run, r.accuracy,
                                    r.reached_target, r.seconds))
            step0 = rounds[0].arrival - rounds[0].seconds
            setup_s.append(step0 - submitted)
            state = timed(client.status, run_id).state
            summary = timed(client.summary, run_id)
            health = timed(client.health)
            peak_rss_mb = _vm_hwm_mb(server.pid)
        except Exception:
            tail = (state_dir / "server.log").read_text(errors="replace")[-2000:]
            print(f"server log (tail):\n{tail}", file=sys.stderr)
            raise
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    out = round_metrics(step0, rounds, config.num_steps)
    out["metrics"]["setup_s"] = statistics.median(setup_s)
    out["metrics"]["peak_rss_mb"] = peak_rss_mb
    out["checks"].update(
        run_completed=state == "completed",
        health_not_failing=health.get("verdict") != "failing",
        # The engine rejects a non-finite aggregate by failing the run,
        # so a completed run with a finite final loss has a finite model.
        model_finite=state == "completed"
        and math.isfinite(summary.history["loss"][-1]),
    )
    out["model_sha256"] = summary.cloud_model_sha256
    out["attempted"] += len(requests)
    out["failed"] += sum(1 for _, ok in requests if not ok)
    lags = [
        (b.arrival - a.arrival - b.seconds) * 1e3 for a, b in zip(rounds, rounds[1:])
    ]
    out["service"] = {
        "service.ready_s": ready_s,
        "service.stream_lag_p50_ms": percentile(lags, 50),
        "service.stream_lag_p95_ms": percentile(lags, 95),
        "service.request_p50_ms": statistics.median(s for s, _ in requests) * 1e3,
        "service.requests": len(requests),
    }
    if spec["trace"]:
        out["spans"] = json.loads(spans_path.read_text())
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    config, overrides = scenario(spec)
    if WORKLOADS[spec["workload"]].service:
        # Traced service runs install the recorder in the server (serve.py).
        out = run_service(spec, config, overrides)
    elif spec["trace"]:
        recorder = spans.SpanRecorder()
        spans.instrument(recorder)
        out = run_inprocess(spec, config)
        out["spans"] = recorder.report()
    else:
        out = run_inprocess(spec, config)

    import numpy as np

    out["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
    out["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
