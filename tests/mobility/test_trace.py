"""Tests for repro.mobility.trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.trace import MobilityTrace, static_trace


def simple_trace():
    assignments = np.array(
        [
            [0, 0, 1, 2],
            [0, 1, 1, 2],
            [1, 1, 0, 2],
        ]
    )
    return MobilityTrace(assignments, num_edges=3)


class TestMobilityTrace:
    def test_dimensions(self):
        trace = simple_trace()
        assert trace.num_steps == 3
        assert trace.num_devices == 4
        assert trace.num_edges == 3

    def test_devices_at(self):
        trace = simple_trace()
        np.testing.assert_array_equal(trace.devices_at(0, 0), [0, 1])
        np.testing.assert_array_equal(trace.devices_at(1, 1), [1, 2])
        np.testing.assert_array_equal(trace.devices_at(2, 2), [3])

    def test_edge_of(self):
        trace = simple_trace()
        assert trace.edge_of(0, 2) == 1
        assert trace.edge_of(2, 0) == 1

    def test_indicator_matrix_partition(self):
        """Eq. (1): columns of B^t sum to exactly 1."""
        trace = simple_trace()
        for t in range(trace.num_steps):
            B = trace.indicator_matrix(t)
            np.testing.assert_array_equal(B.sum(axis=0), np.ones(4, dtype=int))

    def test_validate_passes(self):
        simple_trace().validate()

    def test_cyclic_extension(self):
        trace = simple_trace()
        assert trace.edge_of(3, 0) == trace.edge_of(0, 0)
        np.testing.assert_array_equal(trace.devices_at(5, 1), trace.devices_at(2, 1))

    def test_negative_step_raises(self):
        with pytest.raises(ValueError):
            simple_trace().edge_of(-1, 0)

    def test_bad_edge_index_raises(self):
        with pytest.raises(ValueError):
            simple_trace().devices_at(0, 5)

    def test_rejects_out_of_range_assignments(self):
        with pytest.raises(ValueError, match="edge indices"):
            MobilityTrace(np.array([[0, 3]]), num_edges=2)

    def test_occupancy_sums_to_devices(self):
        trace = simple_trace()
        assert trace.occupancy().sum() == pytest.approx(4.0)

    def test_handover_rate(self):
        trace = simple_trace()
        # 8 transition cells, 3 switches: (0,1): dev1; (1,2): dev0, dev2.
        assert trace.handover_rate() == pytest.approx(3 / 8)

    def test_handover_rate_static_is_zero(self):
        trace = static_trace(10, 5, 3, rng=0)
        assert trace.handover_rate() == 0.0

    def test_empirical_transition_matrix_rows_stochastic(self):
        trace = simple_trace()
        P = trace.empirical_transition_matrix()
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_slice(self):
        trace = simple_trace()
        sub = trace.slice(1, 3)
        assert sub.num_steps == 2
        np.testing.assert_array_equal(sub.assignments, trace.assignments[1:3])

    def test_slice_bounds(self):
        with pytest.raises(ValueError):
            simple_trace().slice(2, 1)
        with pytest.raises(ValueError):
            simple_trace().slice(0, 9)

    @given(st.integers(1, 6), st.integers(1, 10), st.integers(1, 4), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_partition_property_random_traces(self, steps, devices, edges, seed):
        """Eq. (1) holds for arbitrary valid traces."""
        rng = np.random.default_rng(seed)
        trace = MobilityTrace(
            rng.integers(0, edges, size=(steps, devices)), num_edges=edges
        )
        trace.validate()
        for t in range(steps):
            sizes = [trace.devices_at(t, n).size for n in range(edges)]
            assert sum(sizes) == devices


class TestStaticTrace:
    def test_constant_over_time(self):
        trace = static_trace(20, 6, 3, rng=0)
        for t in range(1, 20):
            np.testing.assert_array_equal(trace.assignments[t], trace.assignments[0])

    def test_explicit_assignment(self):
        trace = static_trace(5, 3, 2, assignment=np.array([0, 1, 1]))
        np.testing.assert_array_equal(trace.assignments[0], [0, 1, 1])

    def test_rejects_bad_assignment_shape(self):
        with pytest.raises(ValueError, match="shape"):
            static_trace(5, 3, 2, assignment=np.array([0, 1]))


class TestMembershipIndex:
    """The cached per-step membership index must be an exact drop-in
    for the per-edge ``flatnonzero`` scans it replaces (DESIGN.md §9)."""

    @given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 5), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_devices_at_matches_flatnonzero(self, steps, devices, edges, seed):
        rng = np.random.default_rng(seed)
        trace = MobilityTrace(
            rng.integers(0, edges, size=(steps, devices)), num_edges=edges
        )
        # Include wrapped steps beyond the recorded trace (cyclic replay).
        for t in list(range(steps)) + [steps, 2 * steps + 1]:
            row = trace.assignments[t % steps]
            for n in range(edges):
                np.testing.assert_array_equal(
                    trace.devices_at(t, n), np.flatnonzero(row == n)
                )

    @given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 5), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_counts_at_matches_member_sizes(self, steps, devices, edges, seed):
        rng = np.random.default_rng(seed)
        trace = MobilityTrace(
            rng.integers(0, edges, size=(steps, devices)), num_edges=edges
        )
        for t in (0, steps - 1, steps + 1):
            counts = trace.counts_at(t)
            assert counts.shape == (edges,)
            assert counts.sum() == devices
            np.testing.assert_array_equal(
                counts, [trace.devices_at(t, n).size for n in range(edges)]
            )

    @pytest.mark.parametrize("edges", [1, 8, 255, 256, 257, 300])
    def test_radix_index_matches_flatnonzero_on_both_backends(self, edges):
        """The index sorts rows in uint8 up to 256 edges and uint16 past
        it; members must not depend on that, on either backend."""
        from repro.mobility.streaming import DenseChunkProvider, StreamingTrace

        rng = np.random.default_rng(edges)
        grid = rng.integers(0, edges, size=(3, 2000))
        grid[0, :edges] = np.arange(edges)  # every edge, the top one included
        dense = MobilityTrace(grid, num_edges=edges)
        stream = StreamingTrace(DenseChunkProvider(grid, edges), chunk_steps=2)
        for t in range(4):
            row = grid[t % 3]
            for trace in (dense, stream):
                np.testing.assert_array_equal(
                    trace.counts_at(t), np.bincount(row, minlength=edges)
                )
                for n in range(edges):
                    np.testing.assert_array_equal(
                        trace.devices_at(t, n), np.flatnonzero(row == n)
                    )

    def test_hotpath_and_reference_paths_agree(self):
        """The cached membership index equals a fresh scan of the row,
        past the end of the trace too."""
        trace = simple_trace()
        for t in range(trace.num_steps + 2):
            row = trace.assignment_row(t)
            np.testing.assert_array_equal(
                trace.counts_at(t), np.bincount(row, minlength=trace.num_edges)
            )
            for n in range(trace.num_edges):
                np.testing.assert_array_equal(
                    trace.devices_at(t, n), np.flatnonzero(row == n)
                )

    def test_cached_arrays_are_frozen(self):
        trace = simple_trace()
        members = trace.devices_at(0, 0)
        counts = trace.counts_at(0)
        assert not members.flags.writeable
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            members[0] = 99

    def test_index_cache_bounded_by_num_steps(self):
        trace = simple_trace()
        for t in range(10 * trace.num_steps):
            trace.devices_at(t, 0)
        assert len(trace._membership) == trace.num_steps

    def test_assignment_row_matches_assignments(self):
        trace = simple_trace()
        np.testing.assert_array_equal(trace.assignment_row(1), trace.assignments[1])
        np.testing.assert_array_equal(
            trace.assignment_row(trace.num_steps + 1), trace.assignments[1]
        )


class TestVectorizedValidate:
    def test_error_message_matches_original_format(self):
        trace = simple_trace()
        trace.assignments[1, 2] = 99  # corrupt post-construction
        with pytest.raises(AssertionError, match=r"step 1: some device is in != 1 edge"):
            trace.validate()

    def test_reports_first_bad_step(self):
        trace = simple_trace()
        trace.assignments[2, 0] = -1
        trace.assignments[1, 3] = 77
        with pytest.raises(AssertionError, match=r"step 1:"):
            trace.validate()
