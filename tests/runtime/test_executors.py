"""Tests for the repro.runtime executor subsystem."""

import pickle

import numpy as np
import pytest

from repro.data.synthetic import make_blobs_dataset
from repro.hfl.device import Device
from repro.nn.architectures import build_mlp
from repro.nn.population import PopulationModel
from repro.runtime import (
    EXECUTOR_KINDS,
    EdgeRoundPlan,
    LocalUpdateItem,
    ProcessExecutor,
    SerialExecutor,
    WorkerContext,
    WorkerError,
    make_executor,
    resolve_num_workers,
)


def make_context(num_devices=6, seed=0, small_device=None):
    """Devices hold 20 samples each; ``small_device`` holds 2, fewer
    than a batch of 4, which keeps it out of any stacked pass."""
    rng = np.random.default_rng(seed)
    devices = [
        Device(m, make_blobs_dataset(2 if m == small_device else 20, rng=rng))
        for m in range(num_devices)
    ]
    model = build_mlp(16, hidden=(8,), rng=rng)
    return WorkerContext(model, devices, master_seed=seed), model


def make_plans(model, num_devices=6, num_edges=2, step=0):
    """Two rounds at one step, splitting the devices across edges."""
    start = model.flat_copy()
    plans = []
    per_edge = num_devices // num_edges
    for edge in range(num_edges):
        items = tuple(
            LocalUpdateItem(
                step=step, edge=edge, device_id=edge * per_edge + k,
                local_epochs=2, learning_rate=0.05, batch_size=4,
            )
            for k in range(per_edge)
        )
        plans.append(
            EdgeRoundPlan(step=step, edge=edge, start_model=start, items=items)
        )
    return plans


class TestFactory:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_known_kinds(self, kind):
        executor = make_executor(kind, num_workers=2)
        assert executor.name == kind
        executor.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")

    def test_resolve_num_workers(self):
        assert resolve_num_workers(3) == 3
        assert resolve_num_workers(None) >= 1
        with pytest.raises(ValueError, match="num_workers"):
            resolve_num_workers(0)


class TestWorkerContext:
    def test_requires_devices(self):
        model = build_mlp(16, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one device"):
            WorkerContext(model, [], master_seed=0)

    def test_rejects_misindexed_devices(self):
        context, model = make_context(num_devices=3)
        context.devices = list(reversed(context.devices))
        item = LocalUpdateItem(0, 0, 0, 1, 0.05, 4)
        with pytest.raises(ValueError, match="not indexed by id"):
            context.run_item(model.flat_copy(), item)

    def test_clone_has_private_model(self):
        """A pool worker's copy of the context (its pickle) owns its
        scratch model and devices."""
        context, model = make_context()
        clone = pickle.loads(pickle.dumps(context))
        assert clone.model is not context.model
        assert clone.devices[0] is not context.devices[0]
        assert clone.master_seed == context.master_seed
        np.testing.assert_array_equal(
            clone.model.flat_copy(), context.model.flat_copy()
        )

    def test_run_item_is_a_pure_function_of_coordinates(self):
        """Same (seed, step, edge, device) → same result, any call order."""
        context, model = make_context()
        start = model.flat_copy()
        a = LocalUpdateItem(3, 1, 2, 2, 0.05, 4)
        b = LocalUpdateItem(3, 1, 4, 2, 0.05, 4)
        first = context.run_item(start, a)
        context.run_item(start, b)  # interleave other work
        second = context.run_item(start, a)
        np.testing.assert_array_equal(first.final_model, second.final_model)
        assert first.grad_sq_norms == second.grad_sq_norms

    def test_distinct_coordinates_distinct_streams(self):
        context, model = make_context()
        start = model.flat_copy()
        base = context.run_item(start, LocalUpdateItem(0, 0, 1, 2, 0.05, 4))
        for step, edge in [(1, 0), (0, 1)]:
            other = context.run_item(
                start, LocalUpdateItem(step, edge, 1, 2, 0.05, 4)
            )
            assert not np.array_equal(base.final_model, other.final_model)


class TestBackendEquivalence:
    def run_with(self, executor_factory):
        context, model = make_context()
        plans = make_plans(model)
        with executor_factory() as executor:
            executor.bind(context)
            results = executor.run_step(plans)
        assert len(results) == len(plans)
        return results

    def test_all_backends_bit_identical(self):
        serial = self.run_with(SerialExecutor)
        for workers in (2, 3):
            parallel = self.run_with(lambda: ProcessExecutor(num_workers=workers))
            for round_serial, round_parallel in zip(serial, parallel):
                assert round_serial.keys() == round_parallel.keys()
                for device_id in round_serial:
                    np.testing.assert_array_equal(
                        round_serial[device_id].final_model,
                        round_parallel[device_id].final_model,
                    )
                    assert (
                        round_serial[device_id].grad_sq_norms
                        == round_parallel[device_id].grad_sq_norms
                    )

    def test_empty_plans_and_empty_rounds(self):
        context, model = make_context()
        executor = SerialExecutor()
        executor.bind(context)
        assert executor.run_step([]) == []
        empty_round = EdgeRoundPlan(0, 0, model.flat_copy(), ())
        assert executor.run_step([empty_round]) == [{}]

    def test_executor_reusable_across_steps(self):
        context, model = make_context()
        with ProcessExecutor(num_workers=2) as executor:
            executor.bind(context)
            first = executor.run_step(make_plans(model, step=0))
            second = executor.run_step(make_plans(model, step=1))
        assert first[0].keys() == second[0].keys()
        # Different step → different minibatch streams → different models.
        device_id = next(iter(first[0]))
        assert not np.array_equal(
            first[0][device_id].final_model, second[0][device_id].final_model
        )


class TestWorkerFailure:
    """A crashing pooled worker surfaces (step, edge) context and the
    pool recycles instead of hanging on dead processes."""

    def bad_plan(self, model, step=7, edge=1):
        # device_id 999 does not exist in the context: the worker raises.
        item = LocalUpdateItem(
            step=step, edge=edge, device_id=999,
            local_epochs=2, learning_rate=0.05, batch_size=4,
        )
        return EdgeRoundPlan(
            step=step, edge=edge, start_model=model.flat_copy(), items=(item,)
        )

    def test_process_failure_carries_plan_coordinates(self):
        context, model = make_context()
        with ProcessExecutor(num_workers=2) as executor:
            executor.bind(context)
            with pytest.raises(WorkerError, match="step 7, edge 1") as excinfo:
                executor.run_step([self.bad_plan(model)])
            assert excinfo.value.step == 7
            assert excinfo.value.edge == 1
            assert excinfo.value.__cause__ is not None

    def test_process_pool_recycles_after_failure(self):
        context, model = make_context()
        with ProcessExecutor(num_workers=2) as executor:
            executor.bind(context)
            with pytest.raises(WorkerError):
                executor.run_step([make_plans(model)[0], self.bad_plan(model)])
            # The broken pool was torn down; the next step gets a fresh
            # one and runs clean.
            results = executor.run_step(make_plans(model, step=1))
            assert all(results)

    def test_failure_matches_healthy_round_results(self):
        """A failed step does not poison determinism: after recovery the
        executor reproduces exactly what an unfailed executor computes."""
        context, model = make_context()
        plans = make_plans(model, step=2)
        with ProcessExecutor(num_workers=2) as clean:
            clean.bind(context)
            expected = clean.run_step(plans)
        with ProcessExecutor(num_workers=2) as failed_once:
            failed_once.bind(context)
            with pytest.raises(WorkerError):
                failed_once.run_step([self.bad_plan(model)])
            recovered = failed_once.run_step(plans)
        for expect_round, got_round in zip(expected, recovered):
            assert expect_round.keys() == got_round.keys()
            for device_id in expect_round:
                np.testing.assert_array_equal(
                    expect_round[device_id].final_model,
                    got_round[device_id].final_model,
                )


class TestStepChunks:
    """A step's items split into chunks across edge rounds: one on the
    serial backend, at most one per worker on the process pool."""

    def plans(self, model, step=3):
        # Three uneven rounds, 8 items: 3 workers cut every round boundary.
        start = model.flat_copy()
        sizes, plans, device = (3, 1, 4), [], 0
        for edge, size in enumerate(sizes):
            items = tuple(
                LocalUpdateItem(step, edge, device + k, 2, 0.05, 4)
                for k in range(size)
            )
            plans.append(EdgeRoundPlan(step, edge, start + edge, items))
            device += size
        return plans

    @pytest.mark.parametrize("workers", [1, 2, 3, 12])
    def test_step_submits_at_most_one_future_per_worker(self, workers):
        context, model = make_context(num_devices=8)
        with ProcessExecutor(num_workers=workers) as executor:
            executor.bind(context)
            pool = executor._ensure_pool()
            submitted = []
            submit = pool.submit

            def counted(*args, **kwargs):
                submitted.append(args)
                return submit(*args, **kwargs)

            pool.submit = counted
            executor.run_step(self.plans(model))
            assert len(submitted) == min(workers, 8)
            # An empty round is skipped; an empty step submits nothing.
            submitted.clear()
            empty = EdgeRoundPlan(3, 0, model.flat_copy(), ())
            assert executor.run_step([empty]) == [{}]
            assert submitted == []

    @staticmethod
    def count_stacked_passes(monkeypatch):
        """Record the population size of every stacked pass."""
        passes = []
        original = PopulationModel.local_updates

        def counted(self, start_model, xs, *args):
            passes.append(xs.shape[1])
            return original(self, start_model, xs, *args)

        monkeypatch.setattr(PopulationModel, "local_updates", counted)
        return passes

    @staticmethod
    def assert_matches_per_device(context, plans, results):
        assert len(results) == len(plans)
        for plan, got in zip(plans, results):
            assert list(got) == [item.device_id for item in plan.items]
            for item in plan.items:
                want = context.run_item(plan.start_model, item)
                np.testing.assert_array_equal(
                    got[item.device_id].final_model, want.final_model
                )
                assert got[item.device_id].grad_sq_norms == want.grad_sq_norms
                assert got[item.device_id].mean_loss == want.mean_loss

    def test_serial_step_is_one_stacked_pass(self, monkeypatch):
        context, model = make_context(num_devices=8)
        plans = self.plans(model)
        passes = self.count_stacked_passes(monkeypatch)
        with SerialExecutor() as executor:
            executor.bind(context)
            results = executor.run_step(plans)
        assert passes == [8]
        self.assert_matches_per_device(context, plans, results)

    def test_serial_heterogeneous_step_stacks_round_by_round(
        self, monkeypatch
    ):
        # Device 3, alone on edge 1, cannot fill a batch: the step cannot
        # stack as a whole, so edges 0 and 2 stack separately.
        context, model = make_context(num_devices=8, small_device=3)
        plans = self.plans(model)
        passes = self.count_stacked_passes(monkeypatch)
        with SerialExecutor() as executor:
            executor.bind(context)
            results = executor.run_step(plans)
        assert passes == [3, 4]
        self.assert_matches_per_device(context, plans, results)

    def test_serial_empty_and_one_item_steps(self, monkeypatch):
        context, model = make_context(num_devices=8)
        passes = self.count_stacked_passes(monkeypatch)
        empty = EdgeRoundPlan(3, 0, model.flat_copy(), ())
        one = EdgeRoundPlan(
            3, 1, model.flat_copy(), (LocalUpdateItem(3, 1, 5, 2, 0.05, 4),)
        )
        with SerialExecutor() as executor:
            executor.bind(context)
            executor.enable_worker_timings(granularity="round")
            assert executor.run_step([]) == []
            assert executor.run_step([empty]) == [{}]
            assert executor.drain_worker_timings() == []
            results = executor.run_step([empty, one])
            timings = executor.drain_worker_timings()
        assert passes == []
        assert results[0] == {}
        self.assert_matches_per_device(context, [empty, one], results)
        # A one-edge step keeps its edge in the round record.
        assert [(t.step, t.edge, t.device) for t in timings] == [(3, 1, -1)]

    def test_round_timings_one_record_per_chunk(self):
        context, model = make_context(num_devices=8)
        with ProcessExecutor(num_workers=3) as executor:
            executor.bind(context)
            executor.enable_worker_timings(granularity="round")
            executor.run_step(self.plans(model))
            timings = executor.drain_worker_timings()
        # Chunks: items 0-1 (edge 0), 2-4 (edges 0, 1, 2), 5-7 (edge 2).
        assert len(timings) == 3
        assert sorted(t.edge for t in timings) == [-1, 0, 2]
        assert all(t.device == -1 and t.step == 3 for t in timings)

    def test_item_timings_keep_their_edges(self):
        context, model = make_context(num_devices=8)
        plans = self.plans(model)
        with ProcessExecutor(num_workers=3) as executor:
            executor.bind(context)
            executor.enable_worker_timings()
            executor.run_step(plans)
            timings = executor.drain_worker_timings()
        assert sorted((t.edge, t.device) for t in timings) == [
            (plan.edge, item.device_id) for plan in plans for item in plan.items
        ]

    def test_failure_names_the_failing_items_edge(self):
        context, model = make_context(num_devices=8)
        plans = self.plans(model, step=5)
        bad = LocalUpdateItem(5, 1, 999, 2, 0.05, 4)
        plans[1] = EdgeRoundPlan(5, 1, plans[1].start_model, (bad,))
        with ProcessExecutor(num_workers=2) as executor:
            executor.bind(context)
            # The bad item sits in a chunk that starts in edge 0.
            with pytest.raises(WorkerError, match="step 5, edge 1") as excinfo:
                executor.run_step(plans)
            assert (excinfo.value.step, excinfo.value.edge) == (5, 1)

    def test_unattributed_failure_names_the_chunks_first_round(self):
        context, model = make_context(num_devices=8)
        plans = self.plans(model, step=6)
        # A truncated start model breaks the stacked pass itself, which
        # no single item is to blame for.
        plans[1] = EdgeRoundPlan(6, 1, plans[1].start_model[:-1], plans[1].items)
        with ProcessExecutor(num_workers=2) as executor:
            executor.bind(context)
            with pytest.raises(WorkerError) as excinfo:
                executor.run_step(plans)
            assert (excinfo.value.step, excinfo.value.edge) == (6, 0)


class TestLifecycle:
    def test_run_before_bind_rejected(self):
        for executor in (SerialExecutor(), ProcessExecutor(1)):
            with pytest.raises(RuntimeError, match="bind"):
                executor.run_step([])

    def test_bind_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="WorkerContext"):
            SerialExecutor().bind("not a context")

    def test_close_idempotent(self):
        context, _model = make_context()
        executor = ProcessExecutor(num_workers=1)
        executor.bind(context)
        executor.close()
        executor.close()

    def test_rebind_replaces_context(self):
        context_a, model = make_context(seed=0)
        context_b, _ = make_context(seed=1)
        plans = make_plans(model)
        with ProcessExecutor(num_workers=2) as executor:
            executor.bind(context_a)
            first = executor.run_step(plans)
            executor.bind(context_b)
            second = executor.run_step(plans)
        device_id = next(iter(first[0]))
        # New master seed → new work-item streams → different results.
        assert not np.array_equal(
            first[0][device_id].final_model, second[0][device_id].final_model
        )
