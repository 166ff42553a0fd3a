"""End-to-end topology contracts on the real trainer.

(1) The clustered and gossip modes are deterministic under a fixed
seed, every topology keeps a finite, in-range history under MACH and
two baselines, and every topology replays exactly across checkpoint
kill/resume; (2) a checkpoint
taken under one topology refuses to restore into another; (3) the
default ``hierarchical`` + ``ipw`` pair equals the pre-topology trainer
on every executor, through golden fingerprint cells (``tests/golden``)
recorded with that trainer agreeing.
"""

import numpy as np
import pytest

from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single
from repro.faults import TrainerCheckpoint
from repro.topology import TOPOLOGY_KINDS
from tests.golden.pinned import assert_matches_fingerprint, recorded_numpy_only
from tests.kill import kill_after_checkpoint

BASE = PRESETS["blobs-bench"].with_overrides(
    num_devices=16,
    num_edges=4,
    num_steps=10,
    trace_kind="markov",
    seed=0,
)

TOPOLOGY_OVERRIDES = {
    "hierarchical": {},
    "clustered": {"topology": "clustered", "num_clusters": 2},
    "gossip": {"topology": "gossip", "gossip_degree": 2},
}


def config_for(topology, **extra):
    return BASE.with_overrides(**{**TOPOLOGY_OVERRIDES[topology], **extra})


def assert_identical(a, b):
    assert a.history.steps == b.history.steps
    assert a.history.accuracy == b.history.accuracy
    assert a.history.loss == b.history.loss
    np.testing.assert_array_equal(a.participation_counts, b.participation_counts)


@recorded_numpy_only
class TestDefaultPairBitIdentity:
    """hierarchical+ipw vs the fingerprint of the pre-topology trainer."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_matches_reference_twin(self, executor):
        suffix = "" if executor == "serial" else f"-{executor}"
        assert_matches_fingerprint(f"small-hierarchical-ipw{suffix}")


class TestSeededDeterminism:
    @pytest.mark.parametrize("topology", ["clustered", "gossip"])
    def test_same_seed_replays_exactly(self, topology):
        config = config_for(topology)
        assert_identical(run_single(config, "mach"), run_single(config, "mach"))

    @pytest.mark.parametrize("topology", ["clustered", "gossip"])
    def test_process_executor_matches_serial(self, topology):
        config = config_for(topology)
        pooled = config.with_overrides(executor="process", num_workers=2)
        assert_identical(run_single(config, "mach"), run_single(pooled, "mach"))

    def test_different_seeds_diverge(self):
        config = config_for("gossip")
        a = run_single(config, "mach")
        b = run_single(config.with_overrides(seed=1), "mach")
        assert a.history.accuracy != b.history.accuracy


class TestSaneHistories:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGY_KINDS))
    def test_samplers_keep_a_sane_history(self, topology):
        for sampler in ("mach", "uniform", "class_balance"):
            result = run_single(config_for(topology), sampler)
            accuracy = np.asarray(result.history.accuracy)
            assert accuracy.size
            assert np.all((0.0 <= accuracy) & (accuracy <= 1.0))
            assert np.all(np.isfinite(result.history.loss))


class TestKillResumeParity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGY_KINDS))
    def test_resume_matches_uninterrupted(self, topology, tmp_path):
        config = config_for(topology)
        path = str(tmp_path / "ckpt.json")
        uninterrupted = run_single(config, "mach")
        kill_after_checkpoint(config, "mach", 5, path)
        resumed = run_single(config, "mach", resume_from=path)
        assert_identical(uninterrupted, resumed)

    def test_checkpoint_refuses_wrong_topology(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        kill_after_checkpoint(config_for("gossip"), "mach", 5, path)
        checkpoint = TrainerCheckpoint.load(path)
        assert checkpoint.identity["topology"] == "gossip"
        assert checkpoint.identity["aggregation_strategy"] == "gossip_avg"
        with pytest.raises(ValueError, match="topology"):
            run_single(config_for("clustered"), "mach", resume_from=path)

    def test_checkpoint_refuses_wrong_topology_parameters(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        kill_after_checkpoint(config_for("gossip"), "mach", 5, path)
        with pytest.raises(ValueError, match="degree"):
            run_single(
                config_for("gossip", gossip_degree=3), "mach", resume_from=path
            )
