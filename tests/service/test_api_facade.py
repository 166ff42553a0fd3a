"""The repro.api facade and the runner CLI subcommands.

``repro.api`` is the versioned stability contract: everything in its
``__all__`` must exist, and the three entry points (``run_scenario`` /
``submit`` / ``attach``) must route to the same engine the CLI drives.
The CLI itself is subcommand-structured (`run`, `serve`, `resume`); a
call without a subcommand is a usage error.
"""

import numpy as np
import pytest

import repro.api as api
from repro.experiments import runner
from repro.experiments.runner import run_single

from tests.service.conftest import tiny_scenario


class TestFacadeSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_api_version_is_major_minor(self):
        major, minor = api.API_VERSION.split(".")
        assert major.isdigit() and minor.isdigit()

    def test_presets_and_samplers_reexported(self):
        assert "blobs-bench" in api.PRESETS
        assert "mach" in api.SAMPLER_NAMES
        sampler = api.make_sampler("uniform", api.PRESETS["blobs-bench"])
        assert sampler.name == "uniform"


class TestRunScenario:
    def test_matches_run_single(self, scenario):
        via_facade = api.run_scenario(scenario, sampler="mach")
        direct = run_single(scenario, "mach")
        np.testing.assert_array_equal(
            via_facade.final_cloud_model, direct.final_cloud_model
        )
        assert via_facade.history.accuracy == direct.history.accuracy

    def test_preset_with_overrides(self):
        result = api.run_scenario(
            preset="blobs-bench",
            sampler="uniform",
            num_steps=4,
            num_devices=10,
            num_edges=3,
            samples_per_device=20,
            test_samples=60,
            local_epochs=2,
        )
        assert result.steps_run == 4

    def test_scenario_and_preset_are_exclusive(self, scenario):
        with pytest.raises(ValueError, match="exactly one"):
            api.run_scenario(scenario, preset="blobs-bench")
        with pytest.raises(ValueError, match="exactly one"):
            api.run_scenario()
        with pytest.raises(ValueError, match="unknown preset"):
            api.run_scenario(preset="nope")


class TestSubmit:
    def test_handle_lifecycle_on_explicit_coordinator(self, scenario):
        with api.Coordinator() as coordinator:
            handle = api.submit(
                scenario, sampler="mach", coordinator=coordinator
            )
            status = handle.wait(timeout=120.0)
            assert status.state == "completed"
            rounds = list(handle.stream())
            assert len(rounds) == scenario.num_steps
            result = handle.result()
            summary = handle.summary()
        reference = run_single(scenario, "mach")
        np.testing.assert_array_equal(
            result.final_cloud_model, reference.final_cloud_model
        )
        assert summary.steps_run == scenario.num_steps

    def test_default_coordinator_is_shared(self, scenario):
        first = api.submit(scenario, sampler="uniform")
        second = api.submit(scenario, sampler="uniform")
        assert first._backend is second._backend
        assert first.run_id != second.run_id
        second.wait(timeout=120.0)
        assert first.status().terminal


class TestCLISubcommands:
    def run_args(self, *extra):
        return [
            "--preset", "blobs-bench", "--sampler", "uniform",
            "--steps", "4", "--devices", "10", "--edges", "3",
            "--samples-per-device", "20", "--quiet", *extra,
        ]

    def test_run_subcommand(self, capsys):
        assert runner.main(["run", *self.run_args()]) == 0
        assert capsys.readouterr().out == ""

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(self.run_args())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "{run,serve,resume}" in err

    def test_resume_subcommand(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        assert runner.main([
            "run", *self.run_args(
                "--checkpoint-every", "3", "--checkpoint-path", str(ckpt),
            ),
        ]) == 0
        assert ckpt.is_file()
        assert runner.main(["resume", str(ckpt), *self.run_args()]) == 0
        capsys.readouterr()

    def test_unknown_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        args = runner._serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.state_dir == "service-state"
        assert args.checkpoint_every == 5
        assert not args.no_recover
