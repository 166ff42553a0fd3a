"""Worker-timing attribution across backends, granularities and resume.

Three contracts:

- every backend attributes timings to the right ``(step, edge, device)``
  coordinates at item granularity, and to one ``(step, edge, device=-1)``
  record per chunk at the cheap round granularity (``edge=-1`` for a
  chunk spanning edges);
- timing collection (either granularity) never changes results — the
  timed paths produce bit-identical local updates;
- profiling is invisible to the kill/resume replay: a checkpointed run
  resumed with profiling toggled the other way replays exactly.
"""

import copy
import pickle

import numpy as np
import pytest

from repro import prof
from repro.core.mach import MACHSampler
from repro.obs import Observability, Profiler
from repro.runtime import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)

from tests.obs.conftest import build_obs_trainer
from tests.runtime.test_executors import make_context, make_plans


def results_equal(a, b):
    assert len(a) == len(b)
    for round_a, round_b in zip(a, b):
        assert round_a.keys() == round_b.keys()
        for device_id in round_a:
            np.testing.assert_array_equal(
                round_a[device_id].final_model, round_b[device_id].final_model
            )


@pytest.fixture(autouse=True)
def clean_global_profiler():
    yield
    prof.set_profiler(None)


class TestAttributionAcrossBackends:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_item_granularity_covers_every_item(self, kind):
        context, model = make_context()
        plans = make_plans(model)
        with make_executor(kind, num_workers=2) as executor:
            executor.bind(context)
            executor.enable_worker_timings()
            results = executor.run_step(plans)
            timings = executor.drain_worker_timings()
        expected = {
            (plan.step, plan.edge, item.device_id)
            for plan in plans
            for item in plan.items
        }
        assert {(t.step, t.edge, t.device) for t in timings} == expected
        assert all(t.seconds >= 0.0 for t in timings)
        assert all(t.worker for t in timings)
        assert len(results) == len(plans)

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_round_granularity_covers_every_edge(self, kind):
        context, model = make_context()
        plans = make_plans(model)
        with make_executor(kind, num_workers=2) as executor:
            executor.bind(context)
            executor.enable_worker_timings(granularity="round")
            executor.run_step(plans)
            timings = executor.drain_worker_timings()
        # One record per chunk, marked device=-1.  Serial runs the step
        # as one chunk, which spans both edges; the process pool's two
        # chunks here are one round each.
        assert all(t.device == -1 for t in timings)
        if kind == "serial":
            assert [(t.step, t.edge) for t in timings] == [(0, -1)]
        else:
            assert {(t.step, t.edge) for t in timings} == {
                (plan.step, plan.edge) for plan in plans
            }

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    @pytest.mark.parametrize("granularity", ["item", "round"])
    def test_timed_paths_are_bit_identical(self, kind, granularity):
        context, model = make_context()
        plans = make_plans(model)
        with make_executor(kind, num_workers=2) as executor:
            executor.bind(context)
            baseline = [dict(r) for r in executor.run_step(plans)]
        context2, model2 = make_context()
        with make_executor(kind, num_workers=2) as executor:
            executor.bind(context2)
            executor.enable_worker_timings(granularity=granularity)
            timed = [dict(r) for r in executor.run_step(make_plans(model2))]
            assert executor.drain_worker_timings()
        results_equal(baseline, timed)

    def test_drain_clears_the_buffer(self):
        context, model = make_context()
        with SerialExecutor() as executor:
            executor.bind(context)
            executor.enable_worker_timings()
            executor.run_step(make_plans(model))
            assert executor.drain_worker_timings()
            assert executor.drain_worker_timings() == []

    def test_item_granularity_wins_over_round(self):
        executor = SerialExecutor()
        executor.enable_worker_timings()
        executor.enable_worker_timings(granularity="round")
        assert executor.timing_granularity == "item"

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError, match="granularity"):
            SerialExecutor().enable_worker_timings(granularity="device")

    def test_timings_off_by_default(self):
        context, model = make_context()
        with ProcessExecutor(num_workers=2) as executor:
            executor.bind(context)
            executor.run_step(make_plans(model))
            assert not executor.collects_worker_timings
            assert executor.drain_worker_timings() == []


class TestProfilerTransience:
    """The profiler rides executor/worker state only as config."""

    def test_worker_context_clone_never_carries_a_profiler(self):
        profiler = Profiler().activate()
        profiler.record_phase("execute", 1.0)
        context, _ = make_context()
        clone = pickle.loads(pickle.dumps(context))
        profiler.deactivate()
        # A worker's pickled context has no profiler attribute at all —
        # workers reach the hooks only through the repro.prof process
        # global.
        assert not hasattr(clone, "profiler")

    def test_pickled_profiler_arrives_inert_and_empty(self):
        profiler = Profiler(alloc_every=4).activate()
        profiler.record_phase("execute", 1.0)
        profiler.begin_step(0)
        profiler.end_step(0, 1.0)
        shipped = pickle.loads(pickle.dumps(profiler))
        profiler.deactivate()
        assert shipped.alloc_every == 4
        assert not shipped.active
        assert shipped.phase_table() == []
        assert shipped.to_json()["steps_observed"] == 0
        # The shipped copy is not installed in this process either.
        assert prof.get_profiler() is None

    def test_deepcopied_profiler_does_not_share_buffers(self):
        profiler = Profiler()
        clone = copy.deepcopy(profiler)
        profiler.record_phase("plan", 1.0)
        assert clone.phase_table() == []


class TestKillResumeWithProfiling:
    """Replay is profiling-agnostic: toggle profiling across the kill."""

    def _run(self, steps, obs=None, checkpoint_path=None, resume_from=None,
             kill_at=None):
        overrides = {}
        if checkpoint_path is not None:
            overrides["checkpoint_every"] = kill_at
            overrides["checkpoint_path"] = checkpoint_path
        trainer = build_obs_trainer(
            MACHSampler(), steps=12, obs=obs, **overrides
        )
        result = trainer.run(num_steps=steps, resume_from=resume_from)
        trainer.close()
        return result

    def assert_identical(self, a, b):
        assert a.history.steps == b.history.steps
        assert a.history.accuracy == b.history.accuracy
        assert a.history.loss == b.history.loss
        np.testing.assert_array_equal(
            a.participation_counts, b.participation_counts
        )

    @pytest.mark.parametrize("profile_first_leg", [True, False])
    def test_resume_replays_exactly_across_profiling_toggle(
        self, tmp_path, profile_first_leg
    ):
        path = str(tmp_path / "ckpt.json")
        full = self._run(steps=12)

        first_obs = (
            Observability(profiler=Profiler()) if profile_first_leg else None
        )
        # Kill at an eval-aligned step (eval interval defaults to the
        # sync interval, 5) so the checkpoint carries no extra eval.
        self._run(steps=5, obs=first_obs, checkpoint_path=path, kill_at=5)
        if first_obs is not None:
            first_obs.close()

        second_obs = (
            None if profile_first_leg else Observability(profiler=Profiler())
        )
        resumed = self._run(steps=12, obs=second_obs, resume_from=path)
        if second_obs is not None:
            second_obs.close()

        self.assert_identical(full, resumed)
