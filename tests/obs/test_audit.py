"""MACH decision audit trail: recording, replay proof, round-trips."""

import io
import math

import numpy as np
import pytest

from repro.core.mach import MACHSampler
from repro.hfl.telemetry import TelemetryRecorder
from repro.obs import EventLog, MACHAuditTrail, Observability, read_events
from repro.obs.audit import SamplingDecision
from repro.sampling import UniformSampler

from tests.obs.conftest import build_obs_trainer

SEED = 3


def run_audited(sampler, seed=SEED, steps=10, **overrides):
    stream = io.StringIO()
    obs = Observability.enabled(events=EventLog(stream))
    trainer = build_obs_trainer(
        sampler, seed=seed, obs=obs, telemetry=TelemetryRecorder(),
        **overrides,
    )
    with trainer:
        result = trainer.run(num_steps=steps)
    obs.close()
    return obs.audit, result, stream.getvalue().splitlines()


class TestSamplingDecision:
    def test_sampled_filters_by_indicator(self):
        d = SamplingDecision(
            t=0,
            edge=1,
            devices=(3, 5, 9),
            probabilities=(0.2, 0.9, 0.4),
            indicators=(False, True, True),
        )
        assert d.sampled == (5, 9)

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            SamplingDecision(
                t=0, edge=0, devices=(1, 2), probabilities=(0.5,),
                indicators=(True, False),
            )

    def test_event_round_trip_preserves_inf(self):
        d = SamplingDecision(
            t=2,
            edge=0,
            devices=(1, 2),
            probabilities=(0.5, 1.0),
            indicators=(True, False),
            empirical=(0.0, 4.0),
            bonus=(math.inf, 0.25),
            estimate=(math.inf, 4.25),
        )
        event = d.to_event()
        assert event["bonus"] == ["inf", 0.25]
        assert SamplingDecision.from_event(event) == d

    def test_none_components_round_trip(self):
        d = SamplingDecision(
            t=0, edge=0, devices=(1,), probabilities=(1.0,),
            indicators=(True,),
        )
        rebuilt = SamplingDecision.from_event(d.to_event())
        assert rebuilt.empirical is None
        assert rebuilt == d


class TestAuditOnRealRuns:
    def test_replay_proves_every_sampled_set(self):
        trail, _result, _lines = run_audited(MACHSampler())
        assert trail.decisions
        assert trail.verify_replay(SEED) is True

    def test_wrong_seed_fails_the_proof(self):
        trail, _result, _lines = run_audited(MACHSampler())
        with pytest.raises(ValueError, match="diverged at step"):
            trail.verify_replay(SEED + 1)

    def test_tampered_indicator_is_caught(self):
        trail, _result, _lines = run_audited(MACHSampler())
        victim = trail.decisions[0]
        flipped = victim.indicators[:-1] + (not victim.indicators[-1],)
        trail.decisions[0] = SamplingDecision(
            t=victim.t,
            edge=victim.edge,
            devices=victim.devices,
            probabilities=victim.probabilities,
            indicators=flipped,
        )
        with pytest.raises(ValueError, match=f"step {victim.t}"):
            trail.verify_replay(SEED)

    def test_sampled_sets_match_fault_free_participants(self):
        trail, _result, lines = run_audited(MACHSampler())
        sampled = trail.sampled_sets()
        rounds = [e for e in read_events(lines) if e["type"] == "round"]
        assert len(rounds) == len(sampled)
        for event in rounds:
            key = (event["t"], event["edge"])
            assert sorted(event["participants"]) == sorted(sampled[key])

    def test_from_events_reconstructs_the_trail_exactly(self):
        trail, _result, lines = run_audited(MACHSampler())
        rebuilt = MACHAuditTrail.from_events(read_events(lines))
        assert rebuilt.decisions == trail.decisions
        assert rebuilt.verify_replay(SEED) is True

    def test_mach_components_obey_ucb_decomposition(self):
        trail, _result, _lines = run_audited(MACHSampler(), steps=12)
        saw_infinite_bonus = saw_finite = False
        for d in trail.decisions:
            assert d.empirical is not None
            assert d.bonus is not None
            assert d.estimate is not None
            for emp, bonus, est in zip(d.empirical, d.bonus, d.estimate):
                assert emp >= 0.0
                if math.isinf(bonus):
                    # Never refreshed at a sync: estimate is inf too, so
                    # the strategy treats the device as must-explore.
                    saw_infinite_bonus = True
                    assert math.isinf(est)
                else:
                    saw_finite = True
                    assert est == pytest.approx(emp + bonus)
        assert saw_infinite_bonus and saw_finite

    def test_uniform_sampler_has_no_term_columns(self):
        trail, _result, _lines = run_audited(UniformSampler())
        assert trail.decisions
        for d in trail.decisions:
            assert d.empirical is None
            assert d.bonus is None
            assert d.estimate is None
        assert trail.verify_replay(SEED) is True

    def test_replay_indicators_match_logged_dtype_and_shape(self):
        trail, _result, _lines = run_audited(MACHSampler(), steps=6)
        replayed = trail.replay_indicators(SEED)
        for d in trail.decisions:
            drawn = replayed[(d.t, d.edge)]
            assert drawn.dtype == np.bool_
            assert drawn.shape == (len(d.devices),)
