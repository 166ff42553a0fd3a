"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, train_test_split


def make(n=20, classes=4, rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    return Dataset(rng.normal(size=(n, 3)), rng.integers(0, classes, size=n), classes)


class TestDataset:
    def test_len_and_feature_shape(self):
        ds = make(15)
        assert len(ds) == 15
        assert ds.feature_shape == (3,)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="mismatch"):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="labels out of range"):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError, match="1-D"):
            Dataset(np.zeros((2, 2)), np.zeros((2, 1), dtype=int), 2)

    def test_subset_preserves_labels(self):
        ds = make(10)
        sub = ds.subset([1, 3, 5])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.y, ds.y[[1, 3, 5]])
        assert sub.num_classes == ds.num_classes

    def test_sample_batch_shapes(self):
        ds = make(10)
        x, y = ds.sample_batch(4, rng=0)
        assert x.shape == (4, 3) and y.shape == (4,)

    def test_sample_batch_caps_at_dataset_size(self):
        ds = make(3)
        x, _y = ds.sample_batch(10, rng=0)
        assert x.shape[0] == 3

    def test_sample_batch_deterministic_under_seed(self):
        ds = make(10)
        x1, y1 = ds.sample_batch(5, rng=42)
        x2, y2 = ds.sample_batch(5, rng=42)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_sample_batch_empty_raises(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError, match="empty"):
            ds.sample_batch(1)

    def test_sample_batches_matches_sequential_draws(self):
        """Pre-drawing I batches consumes the RNG stream exactly like I
        sequential sample_batch calls — the bit-identity argument for
        the batched local-update path (odd B and B > n included)."""
        ds = make(10)
        for num_batches in (1, 4, 10):
            for batch_size in (1, 3, 7, 10, 16):
                gen_a = np.random.default_rng(9)
                xs, ys = ds.sample_batches(num_batches, batch_size, rng=gen_a)
                gen_b = np.random.default_rng(9)
                for tau in range(num_batches):
                    x, y = ds.sample_batch(batch_size, rng=gen_b)
                    np.testing.assert_array_equal(xs[tau], x)
                    np.testing.assert_array_equal(ys[tau], y)
                # Subsequent draws from both generators still agree.
                np.testing.assert_array_equal(
                    gen_a.integers(0, 100, size=5), gen_b.integers(0, 100, size=5)
                )

    def test_sample_batches_shapes(self):
        ds = make(10)
        xs, ys = ds.sample_batches(5, 4, rng=0)
        assert xs.shape == (5, 4, 3) and ys.shape == (5, 4)

    def test_sample_batches_caps_at_dataset_size(self):
        ds = make(3)
        xs, _ys = ds.sample_batches(2, 10, rng=0)
        assert xs.shape[:2] == (2, 3)

    def test_sample_batches_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2).sample_batches(1, 1)
        with pytest.raises(ValueError, match="num_batches"):
            make(5).sample_batches(0, 2)

    def test_class_distribution_sums_to_one(self):
        ds = make(50)
        dist = ds.class_distribution()
        assert dist.shape == (4,)
        assert dist.sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(ds.class_counts(), (dist * 50).round())

    def test_class_distribution_empty_is_uniform(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 4)
        np.testing.assert_allclose(ds.class_distribution(), 0.25)

    def test_shuffled_is_permutation(self):
        ds = make(12)
        shuffled = ds.shuffled(rng=1)
        assert sorted(shuffled.y.tolist()) == sorted(ds.y.tolist())
        assert len(shuffled) == len(ds)


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(make(20), test_fraction=0.25, rng=0)
        assert len(test) == 5 and len(train) == 15

    def test_disjoint_and_covering(self):
        ds = Dataset(np.arange(20).reshape(20, 1), np.zeros(20, dtype=int), 1)
        train, test = train_test_split(ds, test_fraction=0.3, rng=0)
        values = sorted(np.concatenate([train.x, test.x]).ravel().tolist())
        assert values == list(range(20))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(make(10), test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(make(10), test_fraction=1.0)
