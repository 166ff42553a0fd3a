"""Tests for repro.utils (rng, validation, probability helpers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.probability import capped_proportional_probabilities
from repro.utils.rng import SeedSequenceFactory, as_generator
from repro.utils.validation import (
    check_finite,
    check_fraction,
    check_membership,
    check_positive,
    check_probability_vector,
    check_shape,
)


class TestAsGenerator:
    def test_from_int(self):
        g1, g2 = as_generator(5), as_generator(5)
        assert g1.normal() == g2.normal()

    def test_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_from_seed_sequence(self):
        ss = np.random.SeedSequence(3)
        assert isinstance(as_generator(ss), np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSeedSequenceFactory:
    def test_streams_stable_per_name(self):
        factory = SeedSequenceFactory(42)
        assert factory.generator("a").normal() == factory.generator("a").normal()

    def test_streams_differ_across_names(self):
        factory = SeedSequenceFactory(42)
        assert factory.generator("a").normal() != factory.generator("b").normal()

    def test_streams_differ_across_master_seeds(self):
        a = SeedSequenceFactory(1).generator("x").normal()
        b = SeedSequenceFactory(2).generator("x").normal()
        assert a != b

    def test_child_factories_independent(self):
        factory = SeedSequenceFactory(0)
        child_a = factory.child("run1")
        child_b = factory.child("run2")
        assert child_a.generator("data").normal() != child_b.generator("data").normal()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SeedSequenceFactory(-1)

    def test_same_name_same_stream_across_call_orders(self):
        """(seed, name) fully determines a stream — interleaving other
        stream requests must not perturb it."""
        factory = SeedSequenceFactory(7)
        direct = factory.generator("alpha").normal(size=4)
        factory.generator("beta")
        factory.generator("gamma")
        interleaved = factory.generator("alpha").normal(size=4)
        np.testing.assert_array_equal(direct, interleaved)


class TestWorkItemStreams:
    def test_stable_across_factories_and_call_orders(self):
        a = SeedSequenceFactory(3).work_item_generator(5, 2, 9).normal(size=4)
        factory = SeedSequenceFactory(3)
        factory.work_item_generator(0, 0, 0)  # unrelated request first
        b = factory.work_item_generator(5, 2, 9).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_per_coordinate(self):
        factory = SeedSequenceFactory(3)
        base = factory.work_item_generator(1, 1, 1).normal()
        for step, edge, device in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            assert factory.work_item_generator(step, edge, device).normal() != base

    def test_distinct_across_master_seeds(self):
        a = SeedSequenceFactory(1).work_item_generator(0, 0, 0).normal()
        b = SeedSequenceFactory(2).work_item_generator(0, 0, 0).normal()
        assert a != b

    def test_matches_equivalent_named_stream(self):
        """The work-item stream is the named stream of its canonical name."""
        factory = SeedSequenceFactory(11)
        named = factory.generator("step/4/edge/1/device/6").normal()
        assert factory.work_item_generator(4, 1, 6).normal() == named

    def test_prefix_extended_key_equals_name_key(self):
        """The cached ``step/s/edge/e/device/`` prefix extended by the
        device digits is the hash of the full canonical name, through
        cache hits (same round) and misses (new step or edge)."""
        factory = SeedSequenceFactory(5)
        big = 10**6
        coordinates = [
            (0, 0, 0), (0, 0, 7), (0, 0, big), (0, 3, 0), (3, 3, 9),
            (3, 3, 12), (9, 0, 4), (big, 2, 5), (big, 2, big + 3),
            (big, big + 1, 1), (12, 3, 1), (1, 23, 1), (0, 0, 0),
        ]
        for step, edge, device in coordinates:
            sequence = factory.work_item_sequence(step, edge, device)
            name = SeedSequenceFactory.work_item_name(step, edge, device)
            assert sequence.spawn_key == (factory._name_key(name),)
            assert sequence.entropy == factory.master_seed

    def test_negative_coordinates_rejected(self):
        factory = SeedSequenceFactory(0)
        with pytest.raises(ValueError, match="non-negative"):
            factory.work_item_sequence(-1, 0, 0)
        factory.work_item_sequence(2, 1, 0)  # caches the (2, 1) prefix
        with pytest.raises(ValueError, match="non-negative"):
            factory.work_item_sequence(2, 1, -1)
        with pytest.raises(ValueError, match="non-negative"):
            factory.round_generator(0, -1, "participation")

    def test_round_roles_independent(self):
        factory = SeedSequenceFactory(0)
        draw = factory.round_generator(3, 1, "participation").normal()
        probe = factory.round_generator(3, 1, "probe/0").normal()
        assert draw != probe


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.0) == 1.0
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_positive("x", -1.0, strict=False)

    def test_check_fraction(self):
        assert check_fraction("f", 0.0) == 0.0
        assert check_fraction("f", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("f", 1.01)
        with pytest.raises(ValueError):
            check_fraction("f", 0.0, inclusive=False)

    def test_check_probability_vector(self):
        v = check_probability_vector("p", np.array([0.2, 0.8]), total=1.0)
        assert v.dtype == float
        with pytest.raises(ValueError, match="sum"):
            check_probability_vector("p", np.array([0.2, 0.2]), total=1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability_vector("p", np.array([1.5]))
        with pytest.raises(ValueError, match="1-D"):
            check_probability_vector("p", np.zeros((2, 2)))

    def test_check_shape(self):
        check_shape("a", np.zeros((2, 3)), (2, 3))
        with pytest.raises(ValueError, match="shape"):
            check_shape("a", np.zeros((2, 3)), (3, 2))

    def test_check_membership(self):
        assert check_membership("m", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError, match="one of"):
            check_membership("m", "c", ("a", "b"))

    def test_check_finite_passes_clean_arrays(self):
        clean = np.array([0.0, -1.5, 1e300])
        out = check_finite("model", clean)
        np.testing.assert_array_equal(out, clean)
        # Lists are coerced, like the other validators.
        np.testing.assert_array_equal(check_finite("xs", [1.0, 2.0]), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_rejects_non_finite(self, bad):
        array = np.zeros(5)
        array[3] = bad
        with pytest.raises(ValueError, match="model.*non-finite.*index 3"):
            check_finite("model", array)

    def test_check_finite_counts_and_locates(self):
        array = np.array([[np.nan, 1.0], [np.inf, 2.0]])
        with pytest.raises(ValueError, match="2 non-finite.*index 0"):
            check_finite("agg", array)


class TestCappedProportionalProbabilities:
    def test_simple_proportional(self):
        q = capped_proportional_probabilities(np.array([1.0, 2.0, 1.0]), 2.0)
        np.testing.assert_allclose(q, [0.5, 1.0, 0.5])

    def test_budget_respected(self):
        q = capped_proportional_probabilities(np.array([1.0, 1.0, 1.0, 1.0]), 2.0)
        assert q.sum() == pytest.approx(2.0)

    def test_clipping_and_redistribution(self):
        # Raw proportional would give [2.4, 0.3, 0.3]; the overflow is
        # clipped to 1 and the rest split proportionally.
        q = capped_proportional_probabilities(np.array([8.0, 1.0, 1.0]), 3.0)
        np.testing.assert_allclose(q, [1.0, 1.0, 1.0])

    def test_partial_clip(self):
        q = capped_proportional_probabilities(np.array([10.0, 1.0, 1.0]), 2.0)
        assert q[0] == pytest.approx(1.0)
        np.testing.assert_allclose(q[1:], 0.5)

    def test_capacity_larger_than_population(self):
        q = capped_proportional_probabilities(np.array([3.0, 1.0]), 10.0)
        np.testing.assert_allclose(q, [1.0, 1.0])

    def test_zero_weights_uniform(self):
        q = capped_proportional_probabilities(np.zeros(4), 2.0)
        np.testing.assert_allclose(q, 0.5)

    def test_mixed_zero_weights(self):
        q = capped_proportional_probabilities(np.array([0.0, 0.0, 5.0]), 1.0)
        assert q[2] == pytest.approx(1.0)
        # No budget remains for the zero-weight entries.
        np.testing.assert_allclose(q[:2], 0.0)

    def test_empty(self):
        assert capped_proportional_probabilities(np.zeros(0), 1.0).shape == (0,)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            capped_proportional_probabilities(np.array([-1.0]), 1.0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            capped_proportional_probabilities(np.ones(2), 0.0)

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
        st.floats(0.1, 30.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, weights, capacity):
        """q in [0,1]; Σq = min(capacity, n) (Eq. (3) with equality)."""
        weights = np.array(weights)
        q = capped_proportional_probabilities(weights, capacity)
        assert np.all(q >= 0) and np.all(q <= 1 + 1e-12)
        expected_total = min(capacity, len(weights))
        if weights.sum() > 0 or np.all(weights == 0):
            assert q.sum() == pytest.approx(expected_total, rel=1e-9)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=10),
        st.floats(0.5, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_weight(self, weights, capacity):
        """Bigger weight never gets a smaller probability."""
        weights = np.array(weights)
        q = capped_proportional_probabilities(weights, capacity)
        order = np.argsort(weights)
        assert np.all(np.diff(q[order]) >= -1e-9)
