"""Tests for the Device / Edge / Cloud actors."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs_dataset
from repro.hfl.cloud import Cloud
from repro.hfl.device import Device, LocalUpdateResult
from repro.hfl.edge import Edge
from repro.nn.architectures import build_mlp


@pytest.fixture
def model(rng):
    return build_mlp(16, num_classes=10, hidden=(8,), rng=rng)


@pytest.fixture
def device(rng):
    return Device(0, make_blobs_dataset(40, rng=rng))


class TestDevice:
    def test_rejects_empty_dataset(self):
        empty = make_blobs_dataset(0, labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            Device(0, empty)

    def test_local_update_runs_i_steps(self, device, model):
        start = model.flat_copy()
        result = device.local_update(start, model, local_epochs=7,
                                     learning_rate=0.05, batch_size=8, rng=0)
        assert len(result.grad_sq_norms) == 7
        assert all(g >= 0 for g in result.grad_sq_norms)
        assert result.final_model.shape == start.shape
        assert not np.allclose(result.final_model, start)

    def test_local_update_reduces_loss_on_average(self, device, model):
        """Eq. (4) descends the local objective."""
        start = model.flat_copy()
        first = device.local_update(start, model, 10, 0.05, 16, rng=1)
        second = device.local_update(first.final_model, model, 10, 0.05, 16, rng=2)
        assert second.mean_loss < first.mean_loss

    def test_local_update_deterministic_under_seed(self, device, model):
        start = model.flat_copy()
        a = device.local_update(start, model, 3, 0.05, 8, rng=5)
        b = device.local_update(start, model, 3, 0.05, 8, rng=5)
        np.testing.assert_allclose(a.final_model, b.final_model)
        assert a.grad_sq_norms == b.grad_sq_norms

    def test_local_update_starts_from_given_model(self, device, model):
        """The device must download the edge model (w^{t,0} = w^t_n)."""
        custom = np.zeros(model.num_parameters)
        result = device.local_update(custom, model, 1, 1e-9, 8, rng=0)
        np.testing.assert_allclose(result.final_model, custom, atol=1e-6)

    def test_probe_grad_sq_norm(self, device, model):
        norm = device.probe_grad_sq_norm(model.flat_copy(), model, 8, rng=0)
        assert norm > 0

    def test_mean_grad_sq_norm(self):
        result = LocalUpdateResult(0, np.zeros(2), [1.0, 3.0], 0.5)
        assert result.mean_grad_sq_norm == 2.0

    def test_validation(self, device, model):
        with pytest.raises(ValueError):
            device.local_update(model.flat_copy(), model, 0, 0.1, 8)
        with pytest.raises(ValueError):
            device.local_update(model.flat_copy(), model, 1, -0.1, 8)


class TestEdge:
    def make_results(self, ids, dim=4, value=1.0):
        return {
            m: LocalUpdateResult(m, np.full(dim, value * (m + 1)), [1.0], 0.5)
            for m in ids
        }

    def test_set_model_validates_shape(self):
        edge = Edge(0, capacity=2.0, model_dim=4)
        with pytest.raises(ValueError):
            edge.set_model(np.zeros(5))

    def test_draw_participation_respects_extremes(self):
        ones = Edge.draw_participation(np.ones(10), rng=0)
        zeros = Edge.draw_participation(np.zeros(10), rng=0)
        assert ones.all() and not zeros.any()

    def test_draw_participation_rate(self):
        draws = Edge.draw_participation(np.full(20000, 0.3), rng=0)
        assert draws.mean() == pytest.approx(0.3, abs=0.02)

    def test_draw_participation_rejects_invalid(self):
        with pytest.raises(ValueError):
            Edge.draw_participation(np.array([1.5]))

    def test_no_participants_keeps_model(self):
        edge = Edge(0, 2.0, 4)
        edge.set_model(np.full(4, 7.0))
        out = edge.aggregate([0, 1], np.array([0.5, 0.5]), {}, 2, mode="delta")
        np.testing.assert_array_equal(out, np.full(4, 7.0))

    def test_delta_mode_full_participation_uniform_q(self):
        """With q=1 for everyone, delta aggregation averages the updates."""
        edge = Edge(0, 2.0, 4)
        edge.set_model(np.zeros(4))
        results = self.make_results([0, 1])
        out = edge.aggregate([0, 1], np.ones(2), results, 2, mode="delta")
        np.testing.assert_allclose(out, (1.0 + 2.0) / 2)

    def test_model_mode_is_literal_eq5(self):
        edge = Edge(0, 2.0, 4)
        edge.set_model(np.zeros(4))
        results = self.make_results([0])
        out = edge.aggregate([0], np.array([0.5]), results, 2, mode="model")
        # weight = 1/(2 members * 0.5) = 1 for the single participant.
        np.testing.assert_allclose(out, 1.0)

    def test_normalized_mode_weights_sum_to_one(self):
        edge = Edge(0, 2.0, 4)
        edge.set_model(np.zeros(4))
        results = self.make_results([0, 1])
        out = edge.aggregate([0, 1], np.array([0.25, 0.75]), results, 2, mode="normalized")
        w0, w1 = 1 / (2 * 0.25), 1 / (2 * 0.75)
        expected = (w0 * 1.0 + w1 * 2.0) / (w0 + w1)
        np.testing.assert_allclose(out, expected)

    def test_fedavg_mode_equal_weights(self):
        edge = Edge(0, 2.0, 4)
        edge.set_model(np.zeros(4))
        results = self.make_results([0, 1])
        out = edge.aggregate([0, 1], np.array([0.9, 0.1]), results, 3, mode="fedavg")
        np.testing.assert_allclose(out, 1.5)  # plain mean of participants

    def test_ipw_unbiasedness_monte_carlo(self):
        """E[edge model] under 'delta' equals the all-devices average of
        updates — the Lemma-1 property at edge level."""
        rng = np.random.default_rng(0)
        deltas = rng.normal(size=(4, 3))
        q = np.array([0.3, 0.6, 0.9, 0.5])
        total = np.zeros(3)
        trials = 30000
        for _ in range(trials):
            participation = rng.random(4) < q
            edge = Edge(0, 2.0, 3)
            edge.set_model(np.zeros(3))
            sampled = np.flatnonzero(participation)
            results = {
                m: LocalUpdateResult(m, deltas[m], [1.0], 0.1)
                for m in sampled.tolist()
            }
            total += edge.aggregate(
                sampled, q[participation], results, 4, mode="delta"
            )
        np.testing.assert_allclose(total / trials, deltas.mean(axis=0), atol=0.02)

    def test_zero_probability_participant_rejected(self):
        edge = Edge(0, 2.0, 4)
        results = self.make_results([0])
        with pytest.raises(ValueError, match="probability"):
            edge.aggregate([0], np.array([0.0]), results, 1, mode="delta")

    def test_unknown_mode_rejected(self):
        edge = Edge(0, 2.0, 4)
        with pytest.raises(ValueError, match="unknown aggregation"):
            edge.aggregate(
                [0], np.array([0.5]), self.make_results([0]), 1, mode="median"
            )

    def test_misaligned_probabilities_rejected(self):
        edge = Edge(0, 2.0, 4)
        with pytest.raises(ValueError, match="align"):
            edge.aggregate([0, 1], np.array([0.5]), {}, 2, mode="delta")

    def test_sampled_but_failed_device_is_skipped(self):
        """A sampled device absent from ``results`` (its upload was lost)
        contributes nothing; the survivors keep their Eq. (5) weights."""
        results = self.make_results([0, 2])
        q = np.array([0.5, 0.5, 0.5])
        with_failure = Edge(0, 2.0, 4)
        out = with_failure.aggregate([0, 1, 2], q, results, 3, mode="delta")
        survivors_only = Edge(0, 2.0, 4)
        expected = survivors_only.aggregate(
            [0, 2], q[[0, 2]], results, 3, mode="delta"
        )
        np.testing.assert_array_equal(out, expected)
        # weight = 1/(3 * 0.5) for each of the values 1.0 and 3.0.
        np.testing.assert_allclose(out, (1.0 + 3.0) / 1.5)

    def test_weight_uses_member_count_not_sampled_count(self):
        edge = Edge(0, 2.0, 4)
        edge.set_model(np.zeros(4))
        out = edge.aggregate([0], np.array([0.5]), self.make_results([0]), 4,
                             mode="model")
        # 1/(4 members * 0.5) = 0.5; the sampled count (1) would give 2.0.
        np.testing.assert_allclose(out, 0.5)

    def test_fedavg_divides_by_survivor_count(self):
        edge = Edge(0, 2.0, 4)
        edge.set_model(np.zeros(4))
        results = self.make_results([0, 1])
        out = edge.aggregate([0, 1, 2], np.array([0.9, 0.1, 0.5]), results, 5,
                             mode="fedavg")
        # Device 2 was sampled but failed: the mean is over 2 survivors.
        np.testing.assert_allclose(out, 1.5)

    @pytest.mark.parametrize("q", [0.0, -0.25])
    def test_survivor_with_non_positive_probability_rejected(self, q):
        edge = Edge(0, 2.0, 4)
        probabilities = np.array([0.5, q])
        with pytest.raises(ValueError, match="probability"):
            edge.aggregate([0, 1], probabilities, self.make_results([0, 1]), 2)
        # Only survivors are checked: the same q on a failed device is inert.
        out = edge.aggregate([0, 1], probabilities, self.make_results([0]), 2)
        np.testing.assert_allclose(out, 1.0)

    @staticmethod
    def member_walk(start, members, q, results, mode, renormalize):
        """Reference Eq. (5): the walk over every member, sampled or not."""
        total_weight, accumulator = 0.0, np.zeros_like(start)
        for device_id, q_m in zip(members, q):
            result = results.get(device_id)
            if result is None:
                continue
            if mode == "fedavg":
                weight = 1.0 / len(results)
            else:
                weight = 1.0 / (len(members) * q_m)
            total_weight += weight
            if mode in ("delta", "fedavg"):
                accumulator += weight * (result.final_model - start)
            else:
                accumulator += weight * result.final_model
        if renormalize and mode in ("delta", "model"):
            accumulator = accumulator / total_weight
        if mode in ("delta", "fedavg"):
            return start + accumulator
        if mode == "model":
            return accumulator
        return accumulator / total_weight

    @pytest.mark.parametrize("mode", ["delta", "model", "normalized", "fedavg"])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_sampled_walk_is_bit_identical_to_member_walk(self, mode, renormalize):
        rng = np.random.default_rng(7)
        members = np.sort(rng.choice(1000, size=60, replace=False))
        q = rng.uniform(0.05, 1.0, size=members.size)
        indicators = rng.random(members.size) < 0.3
        sampled = members[indicators]
        survivors = sampled[rng.random(sampled.size) < 0.8]
        results = {
            m: LocalUpdateResult(m, rng.normal(size=5), [1.0], 0.5)
            for m in survivors.tolist()
        }
        start = rng.normal(size=5)
        edge = Edge(0, 2.0, 5)
        edge.set_model(start)
        out = edge.aggregate(
            sampled, q[indicators], results, members.size, mode=mode,
            renormalize=renormalize,
        )
        expected = self.member_walk(start, members, q, results, mode, renormalize)
        np.testing.assert_array_equal(out, expected)


class TestCloud:
    def test_aggregate_weights_by_member_counts(self):
        cloud = Cloud(3)
        edges = [Edge(0, 1.0, 3), Edge(1, 1.0, 3)]
        edges[0].set_model(np.full(3, 1.0))
        edges[1].set_model(np.full(3, 4.0))
        out = cloud.aggregate(edges, np.array([3, 1]))
        np.testing.assert_allclose(out, (3 * 1.0 + 1 * 4.0) / 4)

    def test_empty_edge_contributes_nothing(self):
        cloud = Cloud(2)
        edges = [Edge(0, 1.0, 2), Edge(1, 1.0, 2)]
        edges[0].set_model(np.full(2, 5.0))
        edges[1].set_model(np.full(2, 100.0))
        out = cloud.aggregate(edges, np.array([4, 0]))
        np.testing.assert_allclose(out, 5.0)

    def test_no_devices_raises(self):
        cloud = Cloud(2)
        with pytest.raises(ValueError, match="no devices"):
            cloud.aggregate([Edge(0, 1.0, 2)], np.array([0]))

    def test_empty_edge_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Cloud(2).aggregate_models([], np.array([]))

    def test_negative_counts_raise(self):
        cloud = Cloud(2)
        edges = [Edge(0, 1.0, 2), Edge(1, 1.0, 2)]
        with pytest.raises(ValueError, match="non-negative"):
            cloud.aggregate(edges, np.array([3, -1]))

    def test_broadcast_sets_all_edges(self):
        cloud = Cloud(2)
        cloud.model = np.array([3.0, 4.0])
        edges = [Edge(0, 1.0, 2), Edge(1, 1.0, 2)]
        cloud.broadcast(edges)
        for edge in edges:
            np.testing.assert_array_equal(edge.model, [3.0, 4.0])

    def test_count_misalignment_rejected(self):
        with pytest.raises(ValueError, match="align"):
            Cloud(2).aggregate([Edge(0, 1.0, 2)], np.array([1, 2]))
