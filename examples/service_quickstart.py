"""Service quickstart: drive the always-on coordinator through repro.api.

Three ways to run the same scenario, by increasing ambition:

1. ``api.run_scenario`` — synchronous, blocks until done (see
   examples/quickstart.py).
2. ``api.submit`` — asynchronous, in-process: the run executes on a
   background coordinator while you stream per-round metrics, pause,
   resume or stop it.  This is what this example shows.
3. ``api.attach(url)`` — the same handle surface against a remote
   coordinator started with::

       PYTHONPATH=src python -m repro.experiments.runner serve --port 8765

Run:  python examples/service_quickstart.py
"""

import repro.api as api


def main() -> None:
    # Submit a small preset to the process-wide default coordinator.
    # The call returns immediately with a RunHandle; the run executes
    # on the coordinator's dispatcher thread.
    handle = api.submit(
        preset="blobs-bench",
        sampler="mach",
        num_steps=20,
        eval_cadence="fixed",
    )
    print(f"submitted {handle.run_id} (state={handle.status().state})")

    # Stream round metrics live as the coordinator finishes each step
    # — follow=True blocks until the run is terminal.
    for round_status in handle.stream(follow=True):
        marker = " <- synced" if round_status.synced else ""
        acc = (
            f" acc={round_status.accuracy:.3f}"
            if round_status.accuracy is not None
            else ""
        )
        print(
            f"step {round_status.step:3d}  "
            f"participants={round_status.participants:2d}{acc}{marker}"
        )

    # A terminal run has a JSON-safe summary (state, final accuracy,
    # SHA-256 of the final cloud model — the bit-identity fingerprint)
    # and, in-process only, the full TrainingResult.
    summary = handle.summary()
    state = handle.status().state
    print(f"\nstate={state} final_acc={summary.final_accuracy:.3f}")
    print(f"cloud model sha256: {summary.cloud_model_sha256[:16]}...")
    result = handle.result()
    print(f"steps run: {result.steps_run}")

    # Remote is the same surface minus result(): api.attach(url) then
    # client.submit/stream/summary — flat model vectors never cross
    # the wire, the summary's SHA-256 stands in for them.


if __name__ == "__main__":
    main()
