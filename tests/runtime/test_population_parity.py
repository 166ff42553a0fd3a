"""City-scale engine parity: population-batched updates (MLP and the
paper CNN) bit-identical to the per-device loop on both executors and
under kill/resume; top-k MACH and adaptive evaluation semantics.

The per-device runs patch ``supports_population_batch`` to refuse every
model, which sends every round down the per-device fallback (process
workers fork after the patch, so they inherit it)."""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.core.mach import MACHConfig, MACHSampler
from repro.experiments.config import PRESETS
from repro.experiments.runner import run_single
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.device import Device
from repro.runtime import EXECUTOR_KINDS, ProcessExecutor, SerialExecutor
from repro.runtime import work_items
from repro.runtime.work_items import EdgeRoundPlan, LocalUpdateItem, WorkerContext
from repro.nn.population import PopulationModel
from repro.data.dataset import Dataset
from repro.data.synthetic import make_blobs_dataset
from repro.nn.architectures import build_mlp, build_model

from tests.faults.test_degradation import build_trainer
from tests.kill import kill_after_checkpoint


def per_device_only():
    """Run every round on the per-device loop."""
    return mock.patch.object(
        work_items, "supports_population_batch", lambda model: False
    )


def run_history(executor="serial", batched=True, steps=10, resume=None,
                checkpoint=None, **overrides):
    with nullcontext() if batched else per_device_only():
        trainer = build_trainer(
            MACHSampler(), executor=executor,
            num_workers=2 if executor != "serial" else None,
            **overrides,
        )
        with trainer:
            result = trainer.run(num_steps=steps, resume_from=resume)
            cloud = trainer.cloud.model.copy()
    return result, cloud


class TestBatchedExecutorParity:
    def test_batched_matches_reference_on_every_executor(self):
        ref_result, ref_cloud = run_history("serial", batched=False)
        for kind in EXECUTOR_KINDS:
            result, cloud = run_history(kind, batched=True)
            assert result.history.steps == ref_result.history.steps
            assert result.history.accuracy == ref_result.history.accuracy
            assert result.history.loss == ref_result.history.loss
            np.testing.assert_array_equal(cloud, ref_cloud)
            np.testing.assert_array_equal(
                result.participation_counts, ref_result.participation_counts
            )

    def test_batched_kill_resume_replays_exactly(self, tmp_path):
        path = tmp_path / "ckpt.json"
        # Kill on an eval boundary so the checkpointed history aligns.
        ckpt_cfg = dict(checkpoint_every=5, checkpoint_path=str(path))
        straight, straight_cloud = run_history("serial", steps=10, **ckpt_cfg)
        run_history("serial", steps=5, **ckpt_cfg)
        resumed, resumed_cloud = run_history(
            "serial", steps=10, resume=str(path), **ckpt_cfg
        )
        assert resumed.history.steps == straight.history.steps
        assert resumed.history.accuracy == straight.history.accuracy
        assert resumed.history.loss == straight.history.loss
        np.testing.assert_array_equal(resumed_cloud, straight_cloud)

    def test_resume_into_reference_twin_matches_batched(self, tmp_path):
        """A checkpoint written by the batched engine must resume to the
        same history on the per-device reference path."""
        path = tmp_path / "ckpt.json"
        ckpt_cfg = dict(checkpoint_every=5, checkpoint_path=str(path))
        straight, _ = run_history("serial", steps=10, **ckpt_cfg)
        run_history("serial", steps=5, batched=True, **ckpt_cfg)
        resumed, _ = run_history(
            "serial", steps=10, batched=False, resume=str(path), **ckpt_cfg
        )
        assert resumed.history.accuracy == straight.history.accuracy
        assert resumed.history.loss == straight.history.loss


#: A small mnist-bench (paper 2-conv CNN) scenario whose edge rounds
#: stack several devices.
CNN_SCENARIO = dict(
    num_devices=12, num_edges=2, num_steps=10, samples_per_device=30,
    test_samples=60, local_epochs=2, participation_fraction=0.8,
    trace_kind="markov",
)


def run_cnn(executor="serial", batched=True, **overrides):
    scenario = dict(
        CNN_SCENARIO, executor=executor,
        num_workers=2 if executor != "serial" else None, **overrides,
    )
    config = PRESETS["mnist-bench"].with_overrides(**scenario)
    telemetry = TelemetryRecorder()
    with nullcontext() if batched else per_device_only():
        result = run_single(config, "mach", telemetry=telemetry)
    return result, telemetry


class TestCNNExecutorParity:
    """The stacked Conv2d/MaxPool2d path against the per-device loop,
    end to end on every executor and under kill/resume."""

    @staticmethod
    def assert_same(result, reference):
        assert result.history.accuracy == reference.history.accuracy
        assert result.history.loss == reference.history.loss
        np.testing.assert_array_equal(
            result.final_cloud_model, reference.final_cloud_model
        )
        np.testing.assert_array_equal(
            result.participation_counts, reference.participation_counts
        )

    def test_stacked_cnn_matches_reference_on_every_executor(self):
        reference, telemetry = run_cnn(batched=False)
        # The cell is only meaningful if rounds really stack.
        assert max(r.num_participants for r in telemetry.records) >= 3
        for kind in EXECUTOR_KINDS:
            result, _ = run_cnn(kind)
            self.assert_same(result, reference)

    def test_stacked_cnn_kill_resume_replays_exactly(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        straight, _ = run_cnn(checkpoint_every=5, checkpoint_path=path)
        config = PRESETS["mnist-bench"].with_overrides(**CNN_SCENARIO)
        kill_after_checkpoint(config, "mach", 5, path)
        resumed = run_single(config, "mach", resume_from=path)
        self.assert_same(resumed, straight)


class TestRunItemsFallbacks:
    @pytest.fixture
    def context(self, rng):
        datasets = [
            make_blobs_dataset(30, num_features=16, num_classes=10, rng=rng)
            for _ in range(4)
        ]
        devices = [Device(i, ds) for i, ds in enumerate(datasets)]
        model = build_mlp(16, hidden=(12,), rng=rng)
        return WorkerContext(model, devices, master_seed=7)

    @staticmethod
    def items(device_ids, **overrides):
        base = dict(step=2, edge=1, local_epochs=3, learning_rate=0.05,
                    batch_size=8)
        base.update(overrides)
        return tuple(
            LocalUpdateItem(device_id=d, **base) for d in device_ids
        )

    @staticmethod
    def assert_results_equal(pairs, reference):
        assert [d for d, _ in pairs] == [d for d, _ in reference]
        for (_, a), (_, b) in zip(pairs, reference):
            np.testing.assert_array_equal(a.final_model, b.final_model)
            assert a.grad_sq_norms == b.grad_sq_norms
            assert a.mean_loss == b.mean_loss

    def test_run_items_matches_run_item(self, context):
        items = self.items([0, 1, 2, 3])
        start = context.model.flat_copy()
        batched = context.run_items(start, items)
        reference = [
            (item.device_id, context.run_item(start, item)) for item in items
        ]
        self.assert_results_equal(batched, reference)

    def test_heterogeneous_hyperparams_fall_back(self, context):
        items = self.items([0, 1]) + self.items([2], learning_rate=0.01)
        assert not context._batchable(items)
        start = context.model.flat_copy()
        pairs = context.run_items(start, items)
        reference = [
            (item.device_id, context.run_item(start, item)) for item in items
        ]
        self.assert_results_equal(pairs, reference)

    def test_uneven_dataset_sizes_fall_back(self, rng):
        datasets = [
            make_blobs_dataset(n, num_features=16, num_classes=10, rng=rng)
            for n in (30, 5)  # 5 < batch_size clips the effective batch
        ]
        devices = [Device(i, ds) for i, ds in enumerate(datasets)]
        context = WorkerContext(
            build_mlp(16, hidden=(12,), rng=rng), devices, master_seed=7
        )
        items = self.items([0, 1])
        assert not context._batchable(items)
        start = context.model.flat_copy()
        self.assert_results_equal(
            context.run_items(start, items),
            [(i.device_id, context.run_item(start, i)) for i in items],
        )

    def test_single_item_uses_per_device_path(self, context):
        assert not context._batchable(self.items([0]))

    def test_pickle_drops_population_cache(self, context):
        import pickle

        items = self.items([0, 1])
        context.run_items(context.model.flat_copy(), items)
        assert context._pop_model is not None
        clone = pickle.loads(pickle.dumps(context))
        assert clone._pop_model is None
        start = context.model.flat_copy()
        self.assert_results_equal(
            clone.run_items(start, items),
            context.run_items(start, items),
        )


class TestCrossEdgeChunks:
    """Chunks cut through edge rounds whose start models differ — the
    serial executor's one chunk per step, the process pool's one per
    worker; each device's result still equals the per-device loop's
    bit for bit."""

    #: Items per edge round: with 12 items, 2 workers cut edge 1 and
    #: 3 workers cut edges 1 and 2.
    ROUND_SIZES = (3, 4, 2, 3)
    SHAPES = {"mnist": (1, 8, 8), "cifar10": (3, 8, 8), "mlp": (16,)}

    @classmethod
    def context(cls, task, rng, small_device=None):
        shape = cls.SHAPES[task]
        devices = [
            Device(
                m,
                Dataset(
                    rng.normal(size=(3 if m == small_device else 12,) + shape),
                    rng.integers(0, 10, size=3 if m == small_device else 12),
                    10,
                ),
            )
            for m in range(sum(cls.ROUND_SIZES))
        ]
        model = build_model(task, shape, scale="tiny", rng=rng)
        return WorkerContext(model, devices, master_seed=11)

    @classmethod
    def plans(cls, context, rng, step=4):
        base = context.model.flat_copy()
        plans, device = [], 0
        for edge, size in enumerate(cls.ROUND_SIZES):
            items = tuple(
                LocalUpdateItem(step, edge, device + k, 2, 0.05, 8)
                for k in range(size)
            )
            start = base + 0.01 * rng.normal(size=base.shape)
            plans.append(EdgeRoundPlan(step, edge, start, items))
            device += size
        return plans

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for got_round, want_round in zip(got, want):
            assert got_round.keys() == want_round.keys()
            for device_id, result in want_round.items():
                np.testing.assert_array_equal(
                    got_round[device_id].final_model, result.final_model
                )
                assert got_round[device_id].grad_sq_norms == result.grad_sq_norms
                assert got_round[device_id].mean_loss == result.mean_loss

    def run(self, executor, context, plans):
        with executor:
            executor.bind(context)
            return [dict(r) for r in executor.run_step(plans)]

    @staticmethod
    def per_device(context, plans):
        return [
            {
                item.device_id: context.run_item(plan.start_model, item)
                for item in plan.items
            }
            for plan in plans
        ]

    @pytest.mark.parametrize("task", ["mnist", "cifar10", "mlp"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_cross_edge_chunks_match_serial(self, rng, task, workers):
        context = self.context(task, rng)
        plans = self.plans(context, rng)
        items = tuple(item for plan in plans for item in plan.items)
        assert context._batchable(items)  # each chunk is one stacked pass
        serial = self.run(SerialExecutor(), context, plans)
        self.assert_same(self.run(ProcessExecutor(workers), context, plans), serial)

    @pytest.mark.parametrize("task", ["mnist", "cifar10", "mlp"])
    @pytest.mark.parametrize("small_device", [None, 5])
    def test_serial_step_matches_per_device(self, rng, task, small_device):
        """One stacked pass over the whole step (or, with device 5
        clipping its batch, one per homogeneous round)."""
        context = self.context(task, rng, small_device=small_device)
        plans = self.plans(context, rng)
        self.assert_same(
            self.run(SerialExecutor(), context, plans),
            self.per_device(context, plans),
        )

    @pytest.mark.parametrize("workers", [2, 3])
    def test_unbatchable_chunk_falls_back_and_matches(self, rng, workers):
        # Device 5 (edge 1) clips the effective batch to 3 samples.
        context = self.context("cifar10", rng, small_device=5)
        plans = self.plans(context, rng)
        items = tuple(item for plan in plans for item in plan.items)
        assert not context._batchable(items)
        serial = self.run(SerialExecutor(), context, plans)
        self.assert_same(self.run(ProcessExecutor(workers), context, plans), serial)

    def test_mixed_chunk_falls_back_one_round_at_a_time(self, rng, monkeypatch):
        """A chunk that cannot stack as a whole runs one stacked pass per
        homogeneous round slice, never the per-device loop for those."""
        context = self.context("mlp", rng, small_device=5)
        plans = self.plans(context, rng)
        starts = tuple(plan.start_model for plan in plans)
        items = tuple(item for plan in plans for item in plan.items)
        rows = tuple(row for row, plan in enumerate(plans) for _ in plan.items)
        stacked = []
        original = PopulationModel.local_updates

        def counted(self, start_model, xs, *args):
            stacked.append(xs.shape[1])
            return original(self, start_model, xs, *args)

        monkeypatch.setattr(PopulationModel, "local_updates", counted)
        pairs = context.run_items(starts, items, rows)
        # Edge 1 holds the odd device out, so it runs item by item.
        assert stacked == [3, 2, 3]
        reference = [
            (item.device_id, context.run_item(starts[row], item))
            for item, row in zip(items, rows)
        ]
        TestRunItemsFallbacks.assert_results_equal(pairs, reference)


class TestTopKSelection:
    def test_topk_with_big_pool_equals_full(self):
        full = MACHSampler(MACHConfig(selection="full"))
        topk = MACHSampler(
            MACHConfig(selection="topk", min_candidates=10_000)
        )
        r_full, c_full = (
            build_trainer(full).run(num_steps=8),
            None,
        )
        r_topk = build_trainer(topk).run(num_steps=8)
        assert r_topk.history.accuracy == r_full.history.accuracy
        assert r_topk.history.loss == r_full.history.loss

    def test_topk_prescreen_is_deterministic(self):
        def run():
            sampler = MACHSampler(
                MACHConfig(selection="topk", min_candidates=2,
                           candidate_factor=1.0)
            )
            return build_trainer(sampler).run(num_steps=10)

        a, b = run(), run()
        assert a.history.accuracy == b.history.accuracy
        np.testing.assert_array_equal(
            a.participation_counts, b.participation_counts
        )

    def test_topk_zeroes_non_candidates(self):
        sampler = MACHSampler(
            MACHConfig(selection="topk", min_candidates=2,
                       candidate_factor=1.0)
        )
        sampler.setup(
            [type("P", (), {"device_id": i})() for i in range(20)], 2
        )
        for m in range(20):
            sampler.tracker.record(m, [float(m + 1)])
        sampler.on_global_sync(0)
        probs = sampler.probabilities(1, 0, np.arange(20), capacity=2.0)
        assert probs.shape == (20,)
        assert (probs > 0).sum() <= 2
        # The highest-experience members are the surviving candidates.
        assert probs[19] > 0

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError, match="selection"):
            MACHConfig(selection="bogus")


class TestAdaptiveEvalCadence:
    def test_plateau_backs_off_and_movement_resets(self):
        fixed = build_trainer(MACHSampler()).run(num_steps=30)
        adaptive = build_trainer(
            MACHSampler(), eval_cadence="adaptive", eval_accuracy_delta=0.02
        ).run(num_steps=30)
        fixed_map = dict(zip(fixed.history.steps, fixed.history.accuracy))
        # Adaptive evals are a subset of steps and agree wherever a
        # fixed-cadence eval also landed (evaluation is a pure observer).
        assert len(adaptive.history.steps) <= len(fixed.history.steps)
        for step, acc in zip(adaptive.history.steps, adaptive.history.accuracy):
            if step in fixed_map:
                assert acc == fixed_map[step]
        assert adaptive.history.steps[-1] == 30  # final step always evaluated

    def test_adaptive_resume_replays_exactly(self, tmp_path):
        path = tmp_path / "ckpt.json"
        cfg = dict(
            eval_cadence="adaptive", eval_accuracy_delta=0.02,
            checkpoint_every=5, checkpoint_path=str(path),
        )
        straight = build_trainer(MACHSampler(), **cfg).run(num_steps=24)
        build_trainer(MACHSampler(), **cfg).run(num_steps=5)
        resumed = build_trainer(MACHSampler(), **cfg).run(
            num_steps=24, resume_from=str(path)
        )
        assert resumed.history.steps == straight.history.steps
        assert resumed.history.accuracy == straight.history.accuracy
        assert resumed.history.loss == straight.history.loss

    def test_invalid_cadence_rejected(self):
        from repro.hfl.config import HFLConfig

        with pytest.raises(ValueError, match="eval_cadence"):
            HFLConfig(eval_cadence="sometimes")
        with pytest.raises(ValueError, match="eval_max_interval"):
            HFLConfig(eval_cadence="adaptive", eval_max_interval=2,
                      sync_interval=5)
