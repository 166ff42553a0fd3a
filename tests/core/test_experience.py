"""Tests for Algorithm 2 (experience updating / UCB estimation)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experience import ExperienceTracker

from tests.core.experience_oracle import DeviceExperience
from tests.state_equal import assert_state_equal


def scalar_rows(state):
    """Per-device dicts in the scalar oracle's schema, read from the
    tracker's columns (``None`` where a presence mask is unset)."""
    ends = np.cumsum(state["buffer_len"])
    return [
        {
            "buffer": state["buffer"][end - length : end].tolist(),
            "window_best": float(state["window_best"][m]),
            "window_participated": bool(state["window_participated"][m]),
            "lifetime_best": float(state["lifetime_best"][m]),
            "participation_count": int(state["participation_count"][m]),
            "exploit": (
                float(state["exploit"][m]) if state["has_exploit"][m] else None
            ),
            "estimate": (
                float(state["estimate"][m]) if state["has_estimate"][m] else None
            ),
        }
        for m, (end, length) in enumerate(zip(ends, state["buffer_len"]))
    ]


class TestDeviceExperience:
    def test_initial_estimate_infinite(self):
        exp = DeviceExperience(0)
        assert exp.estimate == math.inf

    def test_record_fills_buffer(self):
        exp = DeviceExperience(0)
        exp.record([1.0, 2.0, 3.0])
        assert exp.buffer == [1.0, 2.0, 3.0]
        assert exp.participation_count == 1

    def test_record_rejects_empty_or_negative(self):
        exp = DeviceExperience(0)
        with pytest.raises(ValueError):
            exp.record([])
        with pytest.raises(ValueError):
            exp.record([-1.0])

    def test_sync_clears_buffer(self):
        exp = DeviceExperience(0)
        exp.record([4.0])
        exp.sync(t=5)
        assert exp.buffer == []

    def test_exploration_bonus_infinite_before_participation(self):
        assert DeviceExperience(0).exploration_bonus(10) == math.inf

    def test_exploration_bonus_decays_with_participation(self):
        exp = DeviceExperience(0)
        exp.record([1.0])
        b1 = exp.exploration_bonus(100)
        exp.record([1.0])
        exp.record([1.0])
        b3 = exp.exploration_bonus(100)
        assert b3 < b1

    def test_exploration_bonus_formula(self):
        exp = DeviceExperience(0)
        for _ in range(4):
            exp.record([1.0])
        assert exp.exploration_bonus(9) == pytest.approx(math.sqrt(math.log(10) / 4))

    def test_ucb_estimate_combines_terms(self):
        exp = DeviceExperience(0)
        exp.record([2.0, 4.0])  # buffer avg 3.0
        estimate = exp.sync(t=5)
        assert estimate == pytest.approx(3.0 + math.sqrt(math.log(6) / 1))

    def test_recent_window_tracks_decaying_norms(self):
        """Default mode: the estimate follows the current window, so a
        device whose gradients shrink sees its estimate shrink too."""
        exp = DeviceExperience(0, window="recent")
        exp.record([100.0])
        first = exp.sync(t=5)
        exp.record([1.0])
        second = exp.sync(t=10)
        assert second < first

    def test_lifetime_window_freezes_at_max(self):
        """Literal Eq. (15): the exploitation term is a lifetime max."""
        exp = DeviceExperience(0, window="lifetime")
        exp.record([100.0])
        exp.sync(t=5)
        exp.record([1.0])
        second = exp.sync(t=10)
        assert second >= 100.0

    def test_recent_window_carries_estimate_when_idle(self):
        exp = DeviceExperience(0, window="recent")
        exp.record([7.0])
        first = exp.sync(t=5)
        # No participation in the next window: exploitation is carried,
        # the bonus grows with log t.
        second = exp.sync(t=50)
        assert second >= first - 1e-12

    def test_window_max_of_running_averages(self):
        """Within a window the exploitation term is the max over the
        running buffer averages after each participation."""
        exp = DeviceExperience(0, window="recent")
        exp.record([10.0])   # running avg 10
        exp.record([1.0])    # running avg 5.5
        estimate = exp.sync(t=3)
        bonus = math.sqrt(math.log(4) / 2)
        assert estimate == pytest.approx(10.0 + bonus)

    def test_rejects_unknown_window(self):
        with pytest.raises(ValueError):
            DeviceExperience(0, window="sliding")


class TestExperienceTracker:
    def test_estimates_vector(self):
        tracker = ExperienceTracker(3)
        tracker.record(1, [2.0])
        tracker.sync_all(t=5)
        estimates = tracker.estimates([0, 1, 2])
        assert estimates[0] == math.inf and estimates[2] == math.inf
        assert np.isfinite(estimates[1])

    def test_unknown_device_raises(self):
        tracker = ExperienceTracker(2)
        with pytest.raises(KeyError):
            tracker.record(5, [1.0])

    def test_participation_counts(self):
        tracker = ExperienceTracker(3)
        tracker.record(0, [1.0])
        tracker.record(0, [1.0])
        tracker.record(2, [1.0])
        np.testing.assert_array_equal(tracker.participation_counts(), [2, 0, 1])

    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            ExperienceTracker(0)

    @given(
        st.lists(
            st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5),
            min_size=1,
            max_size=10,
        ),
        st.integers(2, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_estimate_upper_bounds_window_mean(self, rounds, t):
        """UCB optimism: after participation, the estimate is at least the
        overall mean of the recorded norms in the window."""
        exp = DeviceExperience(0, window="recent")
        everything = []
        for norms in rounds:
            exp.record(norms)
            everything.extend(norms)
        estimate = exp.sync(t=t)
        assert estimate >= np.mean(everything) - 1e-9


class TestArrayBackedTracker:
    """The vectorized tracker must agree *exactly* with the scalar
    :class:`DeviceExperience` oracle — same values, same state schema —
    under any interleaving of records, failures and syncs."""

    def run_scenario(self, window, seed=3, num_devices=5, num_syncs=4, idle=()):
        rng = np.random.default_rng(seed)
        tracker = ExperienceTracker(num_devices, window=window)
        scalars = [DeviceExperience(m, window=window) for m in range(num_devices)]
        t = 0
        for _ in range(num_syncs):
            for _ in range(rng.integers(2, 5)):
                t += 1
                for m in range(num_devices):
                    if m in idle:
                        continue
                    draw = rng.random()
                    if draw < 0.4:
                        norms = rng.random(size=int(rng.integers(1, 4))) * 10
                        tracker.record(m, norms)
                        scalars[m].record(norms)
                    elif draw < 0.55:
                        tracker.record_failure(m)
                        scalars[m].record_failure()
            tracker.sync_all(t)
            for exp in scalars:
                exp.sync(t)
        return tracker, scalars, t

    @pytest.mark.parametrize("window", ["recent", "lifetime"])
    def test_matches_scalar_twin_bitwise(self, window):
        tracker, scalars, _t = self.run_scenario(window)
        ids = list(range(len(scalars)))
        estimates = tracker.estimates(ids)
        for m, exp in enumerate(scalars):
            assert estimates[m] == exp.estimate
        components = tracker.audit_components(ids)
        for m, exp in enumerate(scalars):
            e, b, g = exp.audit_components()
            assert components["empirical"][m] == e
            assert components["bonus"][m] == b
            assert components["estimate"][m] == g

    @pytest.mark.parametrize("window", ["recent", "lifetime"])
    def test_state_dict_schema_matches_scalar_twin(self, window):
        """Each device's column entries (read through the presence masks)
        equal its scalar twin's per-device ``state_dict`` fields — before
        the first sync (no exploit or estimate set) and after four, with
        device 5 never sampled."""
        for num_syncs in (0, 4):
            tracker, scalars, _t = self.run_scenario(
                window, num_devices=6, num_syncs=num_syncs, idle=(5,)
            )
            # Open a window so the buffers and window fields are not all
            # empty.
            for m, norms in [(0, [2.0, 0.5]), (2, [1.25]), (0, [3.0])]:
                tracker.record(m, norms)
                scalars[m].record(norms)
            tracker.record_failure(1)
            scalars[1].record_failure()
            state = tracker.state_dict()
            assert state["buffer_len"].tolist() == [3, 0, 1, 0, 0, 0]
            assert state["window"] == window
            assert state["buffer_len"].sum() == state["buffer"].size
            rows = scalar_rows(state)
            assert rows == [exp.state_dict() for exp in scalars]

    def test_state_round_trip_is_exact(self):
        tracker, _scalars, t = self.run_scenario("recent")
        state = tracker.state_dict()
        restored = ExperienceTracker(tracker.num_devices, window="recent")
        restored.load_state_dict(state)
        assert_state_equal(restored.state_dict(), state)
        # Continued operation agrees too (the restored buffers feed the
        # same full-buffer means).
        for tr in (tracker, restored):
            tr.record(0, [1.5, 2.5])
            tr.sync_all(t + 1)
        ids = list(range(tracker.num_devices))
        np.testing.assert_array_equal(
            tracker.estimates(ids), restored.estimates(ids)
        )

    def test_participation_counts_sized_by_population(self):
        """Array shape comes from the explicit population size, not from
        which ids happen to have participated."""
        tracker = ExperienceTracker(6)
        tracker.record(1, [1.0])
        counts = tracker.participation_counts()
        assert counts.shape == (6,)
        np.testing.assert_array_equal(counts, [0, 1, 0, 0, 0, 0])
        # Returned array is a copy, not live tracker state.
        counts[0] = 99
        assert tracker.participation_counts()[0] == 0

    def test_estimates_rejects_out_of_range(self):
        tracker = ExperienceTracker(2)
        with pytest.raises(KeyError, match="unknown device"):
            tracker.estimates([0, 5])
        with pytest.raises(KeyError, match="unknown device"):
            tracker.audit_components([-1])
        with pytest.raises(KeyError):
            tracker.record_failure(2)

    def test_load_state_dict_validates(self):
        tracker = ExperienceTracker(2)
        with pytest.raises(ValueError, match="window"):
            tracker.load_state_dict({"window": "lifetime", "devices": {}})
        with pytest.raises(ValueError, match=r"has shape \(3,\), expected \(2,\)"):
            tracker.load_state_dict(ExperienceTracker(3).state_dict())
