"""Streaming-vs-dense trace equivalence on the trainer's query surface,
chunk-cache reproducibility, and the chunk providers."""

import numpy as np
import pytest

from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.streaming import (
    DenseChunkProvider,
    MarkovChunkProvider,
    StaticChunkProvider,
    StreamingTrace,
    streaming_markov_trace,
)
from repro.mobility.trace import MobilityTrace

STEPS, DEVICES, EDGES = 50, 20, 4


@pytest.fixture
def markov_streaming() -> StreamingTrace:
    return streaming_markov_trace(
        EDGES, STEPS, DEVICES, seed=3, stay_probability=0.7, chunk_steps=8
    )


@pytest.fixture
def pair(markov_streaming):
    """(streaming trace, equivalent dense materialization)."""
    return markov_streaming, markov_streaming.materialize()


def assert_query_surface_equal(stream, dense, steps):
    for t in steps:
        np.testing.assert_array_equal(
            stream.assignment_row(t), dense.assignment_row(t)
        )
        np.testing.assert_array_equal(stream.counts_at(t), dense.counts_at(t))
        for edge in range(dense.num_edges):
            np.testing.assert_array_equal(
                stream.devices_at(t, edge), dense.devices_at(t, edge)
            )
            for device in stream.devices_at(t, edge):
                assert stream.edge_of(t, int(device)) == dense.edge_of(
                    t, int(device)
                )


class TestEquivalence:
    def test_query_surface_matches_dense(self, pair):
        stream, dense = pair
        # Non-sequential access order exercises chunk loads both ways.
        assert_query_surface_equal(stream, dense, [0, 17, 3, 49, 8, 31])

    def test_query_surface_matches_on_reference_path(self, pair):
        """The streaming membership index equals a fresh scan of the
        dense row."""
        stream, dense = pair
        for t in (0, 12, 44):
            row = dense.assignment_row(t)
            np.testing.assert_array_equal(
                stream.counts_at(t), np.bincount(row, minlength=dense.num_edges)
            )
            for edge in range(dense.num_edges):
                np.testing.assert_array_equal(
                    stream.devices_at(t, edge), np.flatnonzero(row == edge)
                )

    def test_cyclic_wrap_matches_dense(self, pair):
        stream, dense = pair
        for t in (STEPS, STEPS + 7, 3 * STEPS + 1):
            np.testing.assert_array_equal(
                stream.assignment_row(t), dense.assignment_row(t)
            )
        with pytest.raises(ValueError, match=">= 0"):
            stream.assignment_row(-1)

    def test_statistics_match_dense(self, pair):
        stream, dense = pair
        np.testing.assert_allclose(stream.occupancy(), dense.occupancy())
        assert stream.handover_rate() == pytest.approx(dense.handover_rate())

    def test_validate_passes(self, markov_streaming):
        markov_streaming.validate()

    def test_shape_metadata(self, markov_streaming):
        assert markov_streaming.num_steps == STEPS
        assert markov_streaming.num_devices == DEVICES
        assert markov_streaming.num_edges == EDGES


class TestChunkCache:
    def test_eviction_then_reaccess_is_bit_identical(self, markov_streaming):
        """Chunks regenerated after LRU eviction must reproduce exactly
        (the determinism contract resume replay relies on)."""
        first = np.array(markov_streaming.assignment_row(0))
        # Touch enough distinct chunks to evict chunk 0
        # (MAX_RESIDENT_CHUNKS resident, chunk_steps=8).
        for t in range(0, STEPS, 8):
            markov_streaming.assignment_row(t)
        assert 0 not in markov_streaming._chunks  # actually evicted
        np.testing.assert_array_equal(
            markov_streaming.assignment_row(0), first
        )

    def test_bounded_residency(self, markov_streaming):
        for t in range(0, STEPS, 8):
            markov_streaming.assignment_row(t)
        assert len(markov_streaming._chunks) <= StreamingTrace.MAX_RESIDENT_CHUNKS
        assert (
            len(markov_streaming._membership)
            <= StreamingTrace.MEMBERSHIP_CACHE_STEPS
        )

    def test_chunks_are_frozen(self, markov_streaming):
        row = markov_streaming.assignment_row(0)
        with pytest.raises(ValueError):
            row[0] = 99


class TestProviders:
    def test_dense_provider_serves_the_wrapped_grid(self, rng):
        grid = rng.integers(0, EDGES, size=(STEPS, DEVICES))
        dense = MobilityTrace(grid, EDGES)
        stream = StreamingTrace(
            DenseChunkProvider(grid, EDGES), chunk_steps=16
        )
        assert_query_surface_equal(stream, dense, [0, 20, 49])

    def test_static_provider_tiles_one_row(self, rng):
        assignment = rng.integers(0, EDGES, size=DEVICES)
        stream = StreamingTrace(
            StaticChunkProvider(assignment, STEPS, EDGES), chunk_steps=16
        )
        for t in (0, 7, 33, 49):
            np.testing.assert_array_equal(stream.assignment_row(t), assignment)

    def test_markov_provider_random_access_equals_sequential(self):
        """Jumping straight to a late chunk must give the same block a
        front-to-back walk produces (boundary states are carried)."""
        transition = MarkovMobilityModel.stay_or_jump(EDGES, 0.7).transition
        sequential = MarkovChunkProvider(transition, STEPS, DEVICES, seed=5)
        blocks = [
            sequential.chunk(s, min(s + 64, STEPS)) for s in range(0, STEPS, 64)
        ]
        jumper = MarkovChunkProvider(transition, STEPS, DEVICES, seed=5)
        last_start = (STEPS - 1) // 64 * 64
        np.testing.assert_array_equal(
            jumper.chunk(last_start, STEPS), blocks[-1]
        )

    @pytest.mark.parametrize("num_edges", [1, 2, 8, 300])
    def test_markov_step_equals_row_gather(self, num_edges):
        """The column-by-column step draws the same edge as counting
        ``u > cumulative[state]`` over each device's whole row, ties
        included: ``u`` exactly on a cumulative boundary (and one ulp
        either side of it), and zero-probability entries that repeat a
        cumulative value."""
        rng = np.random.default_rng(num_edges)
        transition = rng.random((num_edges, num_edges))
        transition[rng.random((num_edges, num_edges)) < 0.5] = 0.0
        transition[np.arange(num_edges), np.arange(num_edges)] += 0.25
        if num_edges > 1:
            transition[-1, 0] += 0.25
            transition[[0, -1], -1] = 0.0
        transition /= transition.sum(axis=1, keepdims=True)
        cumulative = np.cumsum(transition, axis=1)
        num_devices = 3000
        state = rng.integers(0, num_edges, size=num_devices).astype(np.int32)
        boundary = cumulative[state, rng.integers(0, num_edges, num_devices)]
        u = np.where(
            np.arange(num_devices) % 4 == 0,
            rng.random(num_devices),
            boundary,
        )
        u[1::4] = np.nextafter(boundary[1::4], 0.0)
        u[2::4] = np.nextafter(boundary[2::4], 2.0)
        u[:3] = [0.0, cumulative[state[1], 0], 1.0]
        if num_edges > 1:
            assert (np.diff(cumulative, axis=1) == 0).any()

        class FixedUniforms:
            def random(self, size):
                assert size == num_devices
                return u

        provider = MarkovChunkProvider(
            transition, STEPS, num_devices, seed=5
        )
        step = provider._advance(state, FixedUniforms())
        expected = (u[:, None] > cumulative[state]).sum(axis=1)
        assert step.dtype == np.int32
        np.testing.assert_array_equal(step, expected)

    def test_markov_provider_rejects_misaligned_requests(self):
        transition = MarkovMobilityModel.stay_or_jump(EDGES, 0.7).transition
        provider = MarkovChunkProvider(
            transition, STEPS, DEVICES, seed=5, chunk_steps=8
        )
        with pytest.raises(ValueError, match="not aligned"):
            provider.chunk(3, 8)

    def test_provider_shape_mismatch_fails_loudly(self):
        class BadProvider:
            num_steps, num_devices, num_edges = STEPS, DEVICES, EDGES

            def chunk(self, start, stop):
                return np.zeros((1, DEVICES), dtype=np.int32)

        stream = StreamingTrace(BadProvider(), chunk_steps=8)
        with pytest.raises(ValueError, match="shape"):
            stream.assignment_row(0)


class TestDenseTraceSatellites:
    def test_trace_storage_is_int32(self, tiny_trace):
        assert tiny_trace.assignments.dtype == np.int32

    def test_occupancy_matches_per_step_loop(self, tiny_trace):
        reference = np.zeros(tiny_trace.num_edges)
        for t in range(tiny_trace.num_steps):
            reference += np.bincount(
                tiny_trace.assignments[t], minlength=tiny_trace.num_edges
            )
        reference /= tiny_trace.num_steps
        np.testing.assert_array_equal(tiny_trace.occupancy(), reference)

    def test_membership_cache_is_bounded(self):
        grid = np.zeros((200, 4), dtype=np.int64)
        trace = MobilityTrace(grid, 2)
        for t in range(200):
            trace.counts_at(t)
        assert len(trace._membership) <= MobilityTrace.MEMBERSHIP_CACHE_STEPS
