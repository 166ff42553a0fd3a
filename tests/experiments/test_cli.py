"""The ``run``/``resume`` CLI surface derived from ScenarioConfig metadata.

The scenario flags are generated from the ``ScenarioConfig`` field
metadata, so these tests pin the generated surface to a literal list:
a metadata edit cannot rename, drop or add a flag, or change a default
or a choice list, without failing here.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.experiments import runner
from repro.experiments.config import CLI_FIELDS, PRESETS

#: ``option -> (default, choices, type, metavar)`` of every ``run`` flag.
RUN_SURFACE = {
    "--preset": ("blobs-bench", ("blobs-bench", "cifar10-bench", "cifar10-paper",
                                 "fmnist-bench", "fmnist-paper", "mnist-bench",
                                 "mnist-paper"), None, None),
    "--sampler": ("mach", ("mach", "mach_p", "uniform", "class_balance",
                           "statistical"), None, None),
    "--executor": ("serial", ("serial", "process"), None, None),
    "--num-workers": (None, None, int, None),
    "--topology": (None, ("hierarchical", "clustered", "gossip"), None, None),
    "--aggregation": (None, ("ipw", "cluster_mix", "gossip_avg"), None, None),
    "--num-clusters": (None, None, int, "C"),
    "--mixing-weight": (None, None, float, "LAMBDA"),
    "--gossip-degree": (None, None, int, "K"),
    "--devices": (None, None, int, "M"),
    "--edges": (None, None, int, "N"),
    "--samples-per-device": (None, None, int, "S"),
    "--participation": (None, None, float, "F"),
    "--trace-kind": (None, ("telecom", "markov", "static"), None, None),
    "--trace-backend": (None, ("dense", "streaming"), None, None),
    "--trace-chunk-steps": (None, None, int, "C"),
    "--mach-selection": (None, ("full", "topk"), None, None),
    "--eval-cadence": (None, ("fixed", "adaptive"), None, None),
    "--steps": (None, None, int, None),
    "--seed": (None, None, int, None),
    "--stop-at-target": (False, None, None, None),
    "--fault-profile": (None, None, None, "SPEC"),
    "--churn": (None, None, None, "SPEC"),
    "--max-staleness": (None, None, int, "S"),
    "--staleness-discount": (None, None, float, "D"),
    "--checkpoint-every": (None, None, int, "K"),
    "--checkpoint-path": (None, None, None, "PATH"),
    "--log-jsonl": (None, None, None, "PATH"),
    "--trace-out": (None, None, None, "PATH"),
    "--metrics-out": (None, None, None, "PATH"),
    "--profile": (False, None, None, None),
    "--profile-out": (None, None, None, "PATH"),
    "--flamegraph-out": (None, None, None, "PATH"),
    "--profile-alloc-every": (None, None, int, "K"),
    "--health-out": (None, None, None, "PATH"),
    "--log-level": ("info", ("quiet", "info", "debug"), None, None),
    "--quiet": (False, None, None, None),
}

#: ``resume`` takes the same flags; its preset and sampler default to the
#: checkpoint's.
RESUME_SURFACE = {
    **RUN_SURFACE,
    "--preset": (None, *RUN_SURFACE["--preset"][1:]),
    "--sampler": (None, *RUN_SURFACE["--sampler"][1:]),
}

#: ``flag -> (ScenarioConfig field, argument, parsed value)``.
SCENARIO_FLAGS = {
    "--devices": ("num_devices", "60", 60),
    "--edges": ("num_edges", "4", 4),
    "--samples-per-device": ("samples_per_device", "30", 30),
    "--participation": ("participation_fraction", "0.3", 0.3),
    "--steps": ("num_steps", "7", 7),
    "--trace-kind": ("trace_kind", "markov", "markov"),
    "--trace-backend": ("trace_backend", "streaming", "streaming"),
    "--trace-chunk-steps": ("trace_chunk_steps", "16", 16),
    "--topology": ("topology", "clustered", "clustered"),
    "--aggregation": ("aggregation_strategy", "ipw", "ipw"),
    "--num-clusters": ("num_clusters", "2", 2),
    "--mixing-weight": ("cluster_mixing_weight", "0.4", 0.4),
    "--gossip-degree": ("gossip_degree", "3", 3),
    "--executor": ("executor", "process", "process"),
    "--num-workers": ("num_workers", "2", 2),
    "--fault-profile": ("fault_profile", "mild", "mild"),
    "--churn": ("churn_profile", "light", "light"),
    "--max-staleness": ("max_staleness", "2", 2),
    "--staleness-discount": ("staleness_discount", "0.7", 0.7),
    "--checkpoint-every": ("checkpoint_every", "3", 3),
    "--checkpoint-path": ("checkpoint_path", "ck.json", "ck.json"),
    "--seed": ("seed", "11", 11),
    "--mach-selection": ("mach_selection", "topk", "topk"),
    "--eval-cadence": ("eval_cadence", "adaptive", "adaptive"),
}


class _Captured(Exception):
    """Carries the scenario the CLI would have run."""


def scenario_for(monkeypatch, *argv):
    """The ScenarioConfig ``runner run *argv`` hands to ``run_scenario``."""

    def capture(config, **_kwargs):
        raise _Captured(config)

    monkeypatch.setattr(api, "run_scenario", capture)
    with pytest.raises(_Captured) as excinfo:
        runner.main(["run", *argv, "--quiet"])
    return excinfo.value.args[0]


@pytest.mark.parametrize("build", [runner._run_parser, runner._resume_parser])
def test_run_surface_is_pinned(build):
    expected = RESUME_SURFACE if build is runner._resume_parser else RUN_SURFACE
    surface = {}
    for action in build()._actions:
        if isinstance(action, argparse._HelpAction) or not action.option_strings:
            continue
        (option,) = action.option_strings
        choices = tuple(action.choices) if action.choices else None
        surface[option] = (action.default, choices, action.type, action.metavar)
    assert surface == expected


def test_every_scenario_flag_is_mapped():
    assert {f.metadata["flag"] for f in CLI_FIELDS} == set(SCENARIO_FLAGS)


@pytest.mark.parametrize("flag", sorted(SCENARIO_FLAGS))
def test_flag_sets_its_field(monkeypatch, flag):
    name, argument, value = SCENARIO_FLAGS[flag]
    config = scenario_for(monkeypatch, flag, argument)
    assert getattr(config, name) == value
    assert getattr(PRESETS["blobs-bench"], name) != value


def test_no_flags_keep_the_preset(monkeypatch):
    assert scenario_for(monkeypatch, "--preset", "mnist-bench") == PRESETS[
        "mnist-bench"
    ]


def test_checkpoint_every_defaults_the_path(monkeypatch):
    config = scenario_for(monkeypatch, "--checkpoint-every", "3")
    assert config.checkpoint_path == "checkpoint.json"


def test_bad_flag_value_names_the_field(capsys):
    assert runner.main(["run", "--num-workers", "0", "--quiet"]) == 2
    assert "num_workers must be > 0" in capsys.readouterr().err


#: A short run that writes a checkpoint at steps 4 and 8.
RESUME_RUN = ["--preset", "blobs-bench", "--sampler", "mach", "--steps", "10",
              "--quiet"]


@pytest.fixture
def seed3_checkpoint(tmp_path):
    path = tmp_path / "c.json"
    assert runner.main([
        "run", *RESUME_RUN, "--seed", "3", "--checkpoint-every", "4",
        "--checkpoint-path", str(path),
    ]) == 0
    return path


def test_resume_takes_the_checkpoint_seed(seed3_checkpoint, monkeypatch):
    """``resume`` without ``--seed`` continues under the checkpoint's
    seed and finishes where the uninterrupted run does."""
    results = []
    original = api.run_scenario

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(api, "run_scenario", spy)
    assert runner.main(["resume", str(seed3_checkpoint), *RESUME_RUN]) == 0
    assert runner.main(["run", *RESUME_RUN, "--seed", "3"]) == 0
    resumed, uninterrupted = results
    np.testing.assert_array_equal(
        resumed.final_cloud_model, uninterrupted.final_cloud_model
    )


@pytest.mark.parametrize("flag, value", [
    ("--seed", "5"),
    ("--sampler", "uniform"),
    ("--edges", "4"),
    ("--devices", "60"),
    ("--churn", "light"),
    ("--topology", "gossip"),
])
def test_resume_mismatch_is_one_line_naming_the_flag(
    seed3_checkpoint, capsys, flag, value
):
    capsys.readouterr()
    code = runner.main(
        ["resume", str(seed3_checkpoint), *RESUME_RUN, flag, value]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.rstrip().endswith(f"check {flag}")


def spy_results(monkeypatch):
    """The results of every ``run_scenario`` call the CLI makes, in order."""
    results = []
    original = api.run_scenario

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(api, "run_scenario", spy)
    return results


#: A scenario far from its preset: faults, churn, low participation, a
#: seed and a horizon of its own.
NON_DEFAULT_RUN = ["--preset", "blobs-bench", "--fault-profile", "moderate",
                   "--churn", "light", "--participation", "0.3", "--seed", "3",
                   "--steps", "12", "--quiet"]


def test_resume_needs_only_the_checkpoint(tmp_path, monkeypatch):
    """``resume CKPT`` with no flags continues the checkpoint's own run,
    scenario and sampler included, and ends where the run without a
    kill ends."""
    path = tmp_path / "c.json"
    results = spy_results(monkeypatch)
    assert runner.main(["run", *NON_DEFAULT_RUN, "--sampler", "uniform",
                        "--checkpoint-every", "5",
                        "--checkpoint-path", str(path)]) == 0
    assert runner.main(["resume", str(path), "--quiet"]) == 0
    uninterrupted, resumed = results
    assert resumed.steps_run == 12
    assert resumed.sampler_name == "uniform"
    np.testing.assert_array_equal(
        resumed.final_cloud_model, uninterrupted.final_cloud_model
    )


@pytest.mark.parametrize("flag, value", [
    ("--participation", "0.9"),
    ("--steps", "20"),
])
def test_resume_refuses_another_scenario(seed3_checkpoint, capsys, flag, value):
    """Without ``--preset`` a flag applies over the checkpoint's scenario,
    and one that contradicts it exits 2 naming the flag."""
    capsys.readouterr()
    code = runner.main(["resume", str(seed3_checkpoint), flag, value, "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.rstrip().endswith(f"check {flag}")


def test_module_cli_imports_the_runner_once():
    """``python -m repro.experiments.runner`` runs without runpy's
    warning that the package had already imported the module."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.experiments.runner", "run", "--steps", "2", "--quiet"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""


@pytest.mark.parametrize("flags", [
    ["--topology", "clustered", "--aggregation", "ipw"],
    ["--devices", "3", "--edges", "5"],
    ["--participation", "2"],
    ["--churn", "bogus"],
])
@pytest.mark.parametrize("command", ["run", "resume"])
def test_scenario_error_is_one_line(seed3_checkpoint, capsys, command, flags):
    """A scenario the engine rejects ends in one stderr line and exit 2,
    not a traceback, on ``run`` and on ``resume``."""
    head = ["run"] if command == "run" else ["resume", str(seed3_checkpoint)]
    capsys.readouterr()
    code = runner.main([*head, *RESUME_RUN, *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"{runner._PROG}: error: ")
