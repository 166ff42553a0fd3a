"""ChurnProfile parsing and the seeded ChurnProcess event stream."""

import numpy as np
import pytest

from repro.churn import (
    CHURN_PRESETS,
    ChurnProcess,
    ChurnProfile,
    make_churn_process,
    resolve_churn_profile,
)
from repro.utils.rng import SeedSequenceFactory

from tests.state_equal import assert_state_equal


class TestProfileParsing:
    def test_none_passes_through(self):
        assert resolve_churn_profile(None) is None

    def test_ready_profile_passes_through(self):
        profile = ChurnProfile(arrival_rate=0.1)
        assert resolve_churn_profile(profile) is profile

    def test_preset_names(self):
        for name, expected in CHURN_PRESETS.items():
            assert resolve_churn_profile(name) == expected

    def test_key_value_pairs(self):
        profile = resolve_churn_profile("arrival=0.1,departure=0.05")
        assert profile == ChurnProfile(arrival_rate=0.1, departure_rate=0.05)

    def test_preset_with_overrides(self):
        profile = resolve_churn_profile("moderate,min_active=4")
        assert profile == CHURN_PRESETS["moderate"].with_overrides(min_active=4)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown churn preset"):
            resolve_churn_profile("modrate")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown churn spec key"):
            resolve_churn_profile("arival=0.1")

    def test_preset_must_come_first(self):
        with pytest.raises(ValueError, match="preset name must come first"):
            resolve_churn_profile("arrival=0.1,moderate")

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            ChurnProfile(arrival_rate=1.5)
        with pytest.raises(ValueError):
            ChurnProfile(min_active=0)

    def test_active_flag(self):
        assert not ChurnProfile().active
        assert ChurnProfile(arrival_rate=0.1).active
        assert ChurnProfile(departure_rate=0.1).active
        assert ChurnProfile(initial_active_fraction=0.5).active

    def test_make_churn_process_gates_on_activity(self):
        assert make_churn_process(None) is None
        assert make_churn_process(ChurnProfile()) is None
        assert make_churn_process(CHURN_PRESETS["none"]) is None
        assert isinstance(
            make_churn_process(CHURN_PRESETS["light"]), ChurnProcess
        )


def bound_process(profile, num_devices=40, seed=7):
    process = ChurnProcess(profile)
    process.bind(num_devices, SeedSequenceFactory(seed))
    process.reset()
    return process


class TestProcessDeterminism:
    def test_same_seed_same_stream(self):
        a = bound_process(CHURN_PRESETS["moderate"])
        b = bound_process(CHURN_PRESETS["moderate"])
        np.testing.assert_array_equal(a.active_mask, b.active_mask)
        for t in range(30):
            sa, sb = a.step(t), b.step(t)
            assert sa.joined == sb.joined
            assert sa.left == sb.left
            assert sa.num_active == sb.num_active

    def test_different_seed_differs(self):
        a = bound_process(CHURN_PRESETS["moderate"], seed=7)
        b = bound_process(CHURN_PRESETS["moderate"], seed=8)
        histories = [
            [(s.joined, s.left) for s in (p.step(t) for t in range(30))]
            for p in (a, b)
        ]
        assert histories[0] != histories[1]

    def test_step_stream_is_position_independent(self):
        """The ``step/{t}`` draw depends only on t, not on how many
        earlier steps ran — the property kill/resume relies on."""
        full = bound_process(CHURN_PRESETS["moderate"])
        for t in range(10):
            full.step(t)
        snapshot = full.state_dict()

        resumed = ChurnProcess(CHURN_PRESETS["moderate"])
        resumed.bind(40, SeedSequenceFactory(7))
        resumed.load_state_dict(snapshot)
        for t in range(10, 20):
            sa, sb = full.step(t), resumed.step(t)
            assert sa.joined == sb.joined
            assert sa.left == sb.left
        np.testing.assert_array_equal(full.active_mask, resumed.active_mask)

    def test_reset_is_idempotent(self):
        process = bound_process(CHURN_PRESETS["heavy"])
        mask = process.active_mask.copy()
        for t in range(5):
            process.step(t)
        process.reset()
        np.testing.assert_array_equal(process.active_mask, mask)


class TestProcessSemantics:
    def test_no_same_step_join_and_leave(self):
        process = bound_process(CHURN_PRESETS["heavy"], num_devices=100)
        for t in range(50):
            step = process.step(t)
            assert not set(step.joined) & set(step.left)

    def test_transitions_respect_previous_mask(self):
        process = bound_process(CHURN_PRESETS["heavy"], num_devices=100)
        for t in range(50):
            before = process.active_mask.copy()
            step = process.step(t)
            for m in step.joined:
                assert not before[m]
                assert process.active_mask[m]
            for m in step.left:
                assert before[m]
                assert not process.active_mask[m]
            assert step.num_active == process.num_active

    def test_min_active_floor_holds(self):
        profile = ChurnProfile(departure_rate=0.9, min_active=3)
        process = bound_process(profile, num_devices=10)
        for t in range(30):
            process.step(t)
            assert process.num_active >= 3

    def test_initial_active_floor_holds(self):
        profile = ChurnProfile(
            initial_active_fraction=0.0, min_active=5, arrival_rate=0.1
        )
        process = bound_process(profile, num_devices=20)
        assert process.num_active >= 5

    def test_state_round_trip(self):
        process = bound_process(CHURN_PRESETS["moderate"])
        for t in range(12):
            process.step(t)
        state = process.state_dict()
        rebuilt = ChurnProcess(CHURN_PRESETS["moderate"])
        rebuilt.bind(40, SeedSequenceFactory(7))
        rebuilt.load_state_dict(state)
        np.testing.assert_array_equal(
            process.active_mask, rebuilt.active_mask
        )
        assert_state_equal(rebuilt.state_dict(), state)

    def test_load_rejects_wrong_population(self):
        process = bound_process(CHURN_PRESETS["moderate"], num_devices=40)
        state = process.state_dict()
        other = ChurnProcess(CHURN_PRESETS["moderate"])
        other.bind(10, SeedSequenceFactory(7))
        with pytest.raises(ValueError, match="active mask"):
            other.load_state_dict(state)

    def test_requires_bind_and_reset(self):
        process = ChurnProcess(CHURN_PRESETS["light"])
        with pytest.raises(RuntimeError):
            process.step(0)
        process.bind(10, SeedSequenceFactory(0))
        with pytest.raises(RuntimeError):
            _ = process.active_mask
