"""Crash recovery: kill −9 a serving coordinator, restart, replay.

A coordinator with a ``state_dir`` persists, per run, a JSON manifest,
a rotating checksummed checkpoint pair and the per-round metrics JSONL.  When
the process dies mid-round, a fresh coordinator over the same state dir
must resume every non-terminal run from its newest intact checkpoint
(``TrainerCheckpoint.load_with_fallback``) and — because every random
draw comes from named ``(step, edge, device)`` seed streams — replay to
a final cloud model bit-identical to an uninterrupted run.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import run_single
from repro.faults import TrainerCheckpoint
from repro.service import Coordinator

from tests.faults.test_checkpoint import v3_payload
from tests.service.conftest import tiny_scenario

#: The scenario the killed subprocess runs: long enough that SIGKILL
#: lands mid-run, cheap enough that the replay stays seconds-scale.
CRASH_STEPS = 200

_SERVE_SCRIPT = """
import sys
from repro.service import Coordinator
from tests.service.conftest import tiny_scenario

coordinator = Coordinator(state_dir=sys.argv[1], checkpoint_every=5)
run_id = coordinator.submit(
    tiny_scenario(num_steps={steps}), sampler="mach", preset="blobs-bench"
)
coordinator.result(run_id, timeout=600.0)
print("COMPLETED", flush=True)
"""


def crashed_state_dir(tmp_path, wait_for=".prev"):
    """Start a serving subprocess, SIGKILL it mid-run, return its state dir.

    ``wait_for`` names the checkpoint artifact that must exist before
    the kill: ``".prev"`` waits for the second checkpoint write (so the
    rotated copy exists), anything else for the first.
    """
    state = tmp_path / "state"
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVE_SCRIPT.format(steps=CRASH_STEPS), str(state)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    primary = state / "runs" / "run-0001" / "checkpoint.json"
    target = (
        Path(str(primary) + ".prev") if wait_for == ".prev" else primary
    )
    try:
        deadline = time.monotonic() + 120.0
        while not target.is_file():
            if proc.poll() is not None:
                out, err = proc.communicate()
                raise AssertionError(
                    f"serving process exited before the kill: "
                    f"{out.decode()!r} {err.decode()!r}"
                )
            if time.monotonic() > deadline:
                raise AssertionError(f"timed out waiting for {target}")
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
    manifest = json.loads(
        (state / "runs" / "run-0001" / "run.json").read_text()
    )
    assert manifest["state"] in ("queued", "running", "paused")
    return state


def interrupted_run(state, steps=12):
    """A durable run that checkpointed at steps 5 and 10, with its
    manifest set back to ``running``: what a crash after its last
    checkpoint leaves for :meth:`Coordinator.recover`."""
    with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
        run_id = coordinator.submit(tiny_scenario(num_steps=steps), sampler="mach")
        coordinator.result(run_id, timeout=120.0)
    run_dir = state / "runs" / run_id
    manifest = json.loads((run_dir / "run.json").read_text())
    (run_dir / "run.json").write_text(json.dumps(dict(manifest, state="running")))
    return run_dir


def reference_sha():
    result = run_single(tiny_scenario(num_steps=CRASH_STEPS), "mach")
    return (
        hashlib.sha256(result.final_cloud_model.tobytes()).hexdigest(),
        result,
    )


class TestKillMinus9:
    def test_restart_recovers_and_replays_bit_identically(self, tmp_path):
        state = crashed_state_dir(tmp_path)
        expected_sha, reference = reference_sha()
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            recovered = coordinator.recover()
            assert recovered == ["run-0001"]
            status = coordinator.status("run-0001")
            assert status.resumed_from_step is not None
            assert status.resumed_from_step >= 5  # a checkpoint existed
            result = coordinator.result("run-0001", timeout=600.0)
            summary = coordinator.summary("run-0001")
        assert result.steps_run == CRASH_STEPS
        assert summary.cloud_model_sha256 == expected_sha
        assert result.history.accuracy == reference.history.accuracy
        # The stitched round log covers every step exactly once.
        lines = (
            state / "runs" / "run-0001" / "metrics.jsonl"
        ).read_text().splitlines()
        assert [json.loads(l)["steps_run"] for l in lines] == list(
            range(1, CRASH_STEPS + 1)
        )

    def test_corrupted_primary_falls_back_to_rotated_checkpoint(self, tmp_path):
        """The crash also mangled the newest checkpoint: recovery must
        reach back to the rotated ``.prev`` copy and still replay to
        the bit-identical final model."""
        state = crashed_state_dir(tmp_path, wait_for=".prev")
        primary = state / "runs" / "run-0001" / "checkpoint.json"
        text = primary.read_text()
        primary.write_text(text[: len(text) // 2])  # torn write
        expected_sha, _reference = reference_sha()
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            assert coordinator.recover() == ["run-0001"]
            coordinator.result("run-0001", timeout=600.0)
            summary = coordinator.summary("run-0001")
        assert summary.cloud_model_sha256 == expected_sha

    def test_crash_before_first_checkpoint_restarts_from_zero(self, tmp_path):
        scenario = tiny_scenario()
        state = tmp_path / "state"
        # Simulate the aftermath of a pre-checkpoint crash: a manifest
        # in "running" state with no checkpoint next to it.
        with Coordinator(state_dir=state) as coordinator:
            run_id = coordinator.submit(scenario, sampler="uniform")
            coordinator.result(run_id, timeout=120.0)
        run_dir = state / "runs" / run_id
        manifest = json.loads((run_dir / "run.json").read_text())
        manifest["state"] = "running"
        (run_dir / "run.json").write_text(json.dumps(manifest))
        (run_dir / "checkpoint.json").unlink()
        for stale in run_dir.glob("checkpoint.json.prev"):
            stale.unlink()
        (run_dir / "metrics.jsonl").write_text("")
        reference = run_single(scenario, "uniform")
        with Coordinator(state_dir=state) as coordinator:
            assert coordinator.recover() == [run_id]
            status = coordinator.status(run_id)
            assert status.resumed_from_step is None
            result = coordinator.result(run_id, timeout=120.0)
        assert result.history.accuracy == reference.history.accuracy

    def test_recover_is_idempotent(self, tmp_path):
        state = crashed_state_dir(tmp_path)
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            assert coordinator.recover() == ["run-0001"]
            # A second sweep must not double-submit the live run.
            assert coordinator.recover() == []
            coordinator.result("run-0001", timeout=600.0)


class TestRoundLogBeforeCheckpoint:
    """A checkpoint only becomes the recovery point once the round log
    holds its step.  The test copies the whole state dir the instant each
    checkpoint save returns, which is exactly what a kill −9 at that
    point leaves on disk, and recovers every copy: no timing, no
    subprocess."""

    def test_crash_right_after_each_checkpoint_recovers_a_gapless_log(
        self, tmp_path, monkeypatch
    ):
        steps = 12
        scenario = tiny_scenario(num_steps=steps)
        state = tmp_path / "state"
        images = []
        save = TrainerCheckpoint.save

        def save_then_image(checkpoint, path):
            written = save(checkpoint, path)
            image = tmp_path / f"crash-at-{checkpoint.step}"
            shutil.copytree(state, image)
            images.append(image)
            return written

        monkeypatch.setattr(TrainerCheckpoint, "save", save_then_image)
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            run_id = coordinator.submit(scenario, sampler="mach")
            coordinator.result(run_id, timeout=120.0)
        monkeypatch.undo()
        assert [image.name for image in images] == ["crash-at-5", "crash-at-10"]
        reference = run_single(scenario, "mach")
        for image in images:
            log = image / "runs" / run_id / "metrics.jsonl"
            logged = [json.loads(l)["steps_run"] for l in log.read_text().splitlines()]
            checkpoint_step = int(image.name.rsplit("-", 1)[1])
            # The crash image already holds the checkpointed step's line.
            assert logged == list(range(1, checkpoint_step + 1))
            with Coordinator(state_dir=image, checkpoint_every=5) as coordinator:
                assert coordinator.recover() == [run_id]
                assert coordinator.status(run_id).resumed_from_step == checkpoint_step
                result = coordinator.result(run_id, timeout=120.0)
            assert result.history.accuracy == reference.history.accuracy
            lines = log.read_text().splitlines()
            assert [json.loads(l)["steps_run"] for l in lines] == list(
                range(1, steps + 1)
            )


class TestLegacyCheckpoint:
    def test_v3_checkpoint_marks_the_run_failed(self, tmp_path):
        """A run whose checkpoints are v3 files is not resumed with
        guessed state: ``recover()`` marks it failed, naming the
        version, and leaves its files in place."""
        state = tmp_path / "state"
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            run_id = coordinator.submit(tiny_scenario(num_steps=12), sampler="mach")
            coordinator.result(run_id, timeout=120.0)
        run_dir = state / "runs" / run_id
        manifest = json.loads((run_dir / "run.json").read_text())
        (run_dir / "run.json").write_text(json.dumps(dict(manifest, state="running")))
        for name in ("checkpoint.json", "checkpoint.json.prev"):
            path = run_dir / name
            path.write_text(json.dumps(v3_payload(json.loads(path.read_text()))))
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            assert coordinator.recover() == []
            status = coordinator.status(run_id)
            assert status.state == "failed"
            assert "unsupported checkpoint version 3" in status.error
        assert json.loads((run_dir / "run.json").read_text())["state"] == "failed"
        assert (run_dir / "checkpoint.json").is_file()


class TestIdentityMismatch:
    def test_manifest_of_another_scenario_marks_the_run_failed(self, tmp_path):
        """A manifest edited to another scenario rebuilds a trainer whose
        identity record disagrees with the checkpoint's: the restore
        fails the run, naming the field and both values."""
        state = tmp_path / "state"
        run_dir = interrupted_run(state)
        manifest = json.loads((run_dir / "run.json").read_text())
        manifest["config"]["participation_fraction"] = 0.9
        (run_dir / "run.json").write_text(json.dumps(manifest))
        with Coordinator(state_dir=state, checkpoint_every=5) as coordinator:
            assert coordinator.recover() == [run_dir.name]
            with pytest.raises(RuntimeError, match="CheckpointMismatchError"):
                coordinator.result(run_dir.name, timeout=120.0)
            status = coordinator.status(run_dir.name)
        assert status.state == "failed"
        assert status.error.startswith("CheckpointMismatchError: ")
        assert "participation_fraction=0.9" in status.error
        assert json.loads((run_dir / "run.json").read_text())["state"] == "failed"
