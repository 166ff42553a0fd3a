"""Base-station geometry and the station→main-edge clustering step.

The paper (§IV-A.1): "Considering the limited mobile data at some base
stations, neighboring base stations cluster together to form several
main base stations."  We reproduce that preprocessing: stations are
points in a planar service area, clustered into ``num_edges`` main edges
with k-means (scipy), and devices associate with the main edge of their
nearest station — the nearest-edge access rule of §II-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class BaseStation:
    """One base station: an id, planar coordinates and a popularity weight.

    ``popularity`` models the heavy-tailed station load observed in the
    Shanghai Telecom dataset (a few hot stations carry most records).
    """

    station_id: int
    x: float
    y: float
    popularity: float = 1.0


class EdgeMap:
    """Mapping from base stations to main edges, plus spatial queries."""

    def __init__(self, stations: Sequence[BaseStation], station_edge: np.ndarray) -> None:
        if len(stations) == 0:
            raise ValueError("need at least one station")
        station_edge = np.asarray(station_edge, dtype=int)
        if station_edge.shape != (len(stations),):
            raise ValueError(
                f"station_edge must have shape ({len(stations)},), got "
                f"{station_edge.shape}"
            )
        self.stations = list(stations)
        self.station_edge = station_edge
        self.num_edges = int(station_edge.max()) + 1
        self._positions = np.array([(s.x, s.y) for s in stations])

    def edge_of_station(self, station_id: int) -> int:
        """Main-edge index of a station."""
        if not 0 <= station_id < len(self.stations):
            raise ValueError(
                f"station_id must be in [0, {len(self.stations)}), got {station_id}"
            )
        return int(self.station_edge[station_id])

    def edge_centroids(self) -> np.ndarray:
        """Popularity-weighted centroid of each main edge, shape (num_edges, 2)."""
        centroids = np.zeros((self.num_edges, 2))
        for n in range(self.num_edges):
            members = np.flatnonzero(self.station_edge == n)
            weights = np.array([self.stations[i].popularity for i in members])
            weights = weights / weights.sum()
            centroids[n] = weights @ self._positions[members]
        return centroids

    def stations_per_edge(self) -> np.ndarray:
        """Number of stations clustered into each main edge."""
        return np.bincount(self.station_edge, minlength=self.num_edges)


def make_station_grid(
    num_stations: int,
    area: float = 100.0,
    num_hotspots: int = 8,
    hotspot_fraction: float = 0.7,
    popularity_tail: float = 1.2,
    rng: RngLike = None,
) -> List[BaseStation]:
    """Synthesize a base-station deployment with urban-like clustering.

    ``hotspot_fraction`` of stations concentrate around ``num_hotspots``
    urban centres (Gaussian spread); the rest scatter uniformly.
    Popularities are Pareto-distributed with shape ``popularity_tail``,
    matching the heavy-tailed per-station load of telecom datasets.
    """
    check_positive("num_stations", num_stations)
    check_positive("area", area)
    check_positive("num_hotspots", num_hotspots)
    rng = as_generator(rng)

    centres = rng.uniform(0.1 * area, 0.9 * area, size=(num_hotspots, 2))
    stations: List[BaseStation] = []
    popularity = 1.0 + rng.pareto(popularity_tail, size=num_stations)
    for i in range(num_stations):
        if rng.random() < hotspot_fraction:
            centre = centres[rng.integers(num_hotspots)]
            pos = centre + rng.normal(scale=0.05 * area, size=2)
        else:
            pos = rng.uniform(0, area, size=2)
        pos = np.clip(pos, 0, area)
        stations.append(
            BaseStation(
                station_id=i, x=float(pos[0]), y=float(pos[1]),
                popularity=float(popularity[i]),
            )
        )
    return stations


def cluster_stations(
    stations: Sequence[BaseStation], num_edges: int, rng: RngLike = None
) -> EdgeMap:
    """Cluster stations into ``num_edges`` main edges with k-means.

    Guarantees every edge is non-empty by reassigning the station
    nearest to any empty cluster's seed (k-means can drop clusters on
    degenerate inputs).
    """
    from scipy.cluster.vq import kmeans2  # imported on use: scipy is heavy

    check_positive("num_edges", num_edges)
    if num_edges > len(stations):
        raise ValueError(
            f"cannot form {num_edges} edges from {len(stations)} stations"
        )
    rng = as_generator(rng)
    positions = np.array([(s.x, s.y) for s in stations])
    seed = int(rng.integers(0, 2**31 - 1))
    _centroids, labels = kmeans2(positions, num_edges, minit="++", seed=seed)

    # Repair empty clusters deterministically.
    labels = np.asarray(labels, dtype=int)
    counts = np.bincount(labels, minlength=num_edges)
    for empty in np.flatnonzero(counts == 0):
        donor_edge = int(np.argmax(counts))
        donor_members = np.flatnonzero(labels == donor_edge)
        moved = donor_members[0]
        labels[moved] = empty
        counts[donor_edge] -= 1
        counts[empty] += 1
    return EdgeMap(stations, labels)
