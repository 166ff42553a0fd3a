"""Tests for the base-station geometry and telecom trace generator."""

import numpy as np
import pytest

from repro.mobility.geo import BaseStation, EdgeMap, cluster_stations, make_station_grid
from repro.mobility.telecom import AccessRecord, TelecomTraceGenerator


class TestMakeStationGrid:
    def test_count_and_bounds(self):
        stations = make_station_grid(50, area=10.0, rng=0)
        assert len(stations) == 50
        for s in stations:
            assert 0 <= s.x <= 10 and 0 <= s.y <= 10
            assert s.popularity > 0

    def test_popularity_heavy_tailed(self):
        stations = make_station_grid(2000, rng=1)
        pops = np.array([s.popularity for s in stations])
        # Pareto-like: top 10% of stations carry a disproportionate share.
        top = np.sort(pops)[-200:].sum()
        assert top / pops.sum() > 0.3

    def test_hotspot_clustering(self):
        """Hotspot-heavy deployments are spatially more concentrated."""
        clustered = make_station_grid(300, num_hotspots=2, hotspot_fraction=0.95, rng=2)
        uniform = make_station_grid(300, hotspot_fraction=0.0, rng=2)

        def spread(stations):
            pos = np.array([(s.x, s.y) for s in stations])
            return pos.std(axis=0).mean()

        assert spread(clustered) < spread(uniform)


class TestClusterStations:
    def test_every_edge_non_empty(self):
        stations = make_station_grid(100, rng=0)
        edge_map = cluster_stations(stations, 8, rng=0)
        assert edge_map.num_edges == 8
        assert np.all(edge_map.stations_per_edge() > 0)

    def test_rejects_more_edges_than_stations(self):
        stations = make_station_grid(5, rng=0)
        with pytest.raises(ValueError, match="cannot form"):
            cluster_stations(stations, 10)

    def test_clusters_are_spatially_coherent(self):
        """A station is usually closer to its own edge centroid than to a
        random other centroid."""
        stations = make_station_grid(200, rng=3)
        edge_map = cluster_stations(stations, 5, rng=3)
        centroids = edge_map.edge_centroids()
        own_closer = 0
        for s in stations:
            own = edge_map.edge_of_station(s.station_id)
            dists = np.linalg.norm(centroids - np.array([s.x, s.y]), axis=1)
            if np.argmin(dists) == own:
                own_closer += 1
        assert own_closer / len(stations) > 0.8


class TestEdgeMap:
    def test_edge_of_station_bounds(self):
        edge_map = EdgeMap([BaseStation(0, 0, 0)], np.array([0]))
        with pytest.raises(ValueError):
            edge_map.edge_of_station(5)


class TestAccessRecord:
    def test_duration(self):
        record = AccessRecord(0, 1, 2.0, 3.5)
        assert record.duration == pytest.approx(1.5)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            AccessRecord(0, 1, 3.0, 2.0)


class TestTelecomTraceGenerator:
    @pytest.fixture
    def generator(self):
        return TelecomTraceGenerator(num_devices=20, num_stations=60, rng=0)

    def test_records_tile_horizon(self, generator):
        records = generator.generate_records(duration_hours=10.0)
        per_device = {}
        for r in records:
            per_device.setdefault(r.device_id, []).append(r)
        assert set(per_device) == set(range(20))
        for sessions in per_device.values():
            sessions.sort(key=lambda r: r.start_time)
            assert sessions[0].start_time == 0.0
            assert sessions[-1].end_time == pytest.approx(10.0)
            for a, b in zip(sessions, sessions[1:]):
                assert b.start_time == pytest.approx(a.end_time)

    def test_station_load_heavy_tailed(self):
        generator = TelecomTraceGenerator(num_devices=60, num_stations=120, rng=1)
        records = generator.generate_records(duration_hours=50.0)
        load = np.zeros(120)
        for r in records:
            load[r.station_id] += r.duration
        load = np.sort(load)[::-1]
        # Top 10% of stations carry well over 10% of total dwell time.
        assert load[:12].sum() / load.sum() > 0.3

    def test_generate_trace_pipeline(self, generator):
        trace, edge_map = generator.generate_trace(num_steps=25, num_edges=4)
        assert trace.num_steps == 25
        assert trace.num_devices == 20
        assert trace.num_edges == 4
        trace.validate()
        assert edge_map.num_edges == 4

    def test_devices_move_but_dwell(self, generator):
        trace, _ = generator.generate_trace(num_steps=60, num_edges=5)
        rate = trace.handover_rate()
        assert 0.0 < rate < 0.8  # mobile, but anchored

    def test_records_to_trace_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            TelecomTraceGenerator.records_to_trace([], None, 10, 0.5)

    def test_records_to_trace_device_gap_rejected(self):
        generator = TelecomTraceGenerator(num_devices=2, num_stations=10, rng=0)
        edge_map = generator.build_edge_map(2)
        records = [AccessRecord(0, 0, 0.0, 5.0)]  # device 1 has no records
        with pytest.raises(ValueError, match="at least one access record"):
            TelecomTraceGenerator.records_to_trace(
                records, edge_map, 5, 1.0, num_devices=2
            )

    def test_validation_of_parameters(self):
        with pytest.raises(ValueError):
            TelecomTraceGenerator(num_devices=0)
        with pytest.raises(ValueError):
            TelecomTraceGenerator(anchor_dwell_bias=1.5)

    def test_deterministic_under_seed(self):
        t1, _ = TelecomTraceGenerator(10, 30, rng=7).generate_trace(10, 3)
        t2, _ = TelecomTraceGenerator(10, 30, rng=7).generate_trace(10, 3)
        np.testing.assert_array_equal(t1.assignments, t2.assignments)
