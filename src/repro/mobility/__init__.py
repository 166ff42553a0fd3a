"""Mobility substrate: base-station geometry, traces and mobility models.

The paper drives its simulation with the Shanghai Telecom dataset
(9,481 devices, 3,233 base stations, 6 months of access records),
clustering neighbouring base stations into main edges and deriving the
per-time-step device→edge indicator ``B^t_{n,m}``.  That dataset is not
available offline, so :class:`repro.mobility.telecom.TelecomTraceGenerator`
synthesizes access records with the same shape (heavy-tailed station
popularity, session-based access, home-biased movement) and the same
preprocessing pipeline (station clustering → main edges → indicator
matrices).  A classical Markov mobility model — the predictive fallback
the paper cites — is provided in :mod:`repro.mobility.markov`.
"""

from repro.mobility.geo import BaseStation, EdgeMap, cluster_stations, make_station_grid
from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.streaming import (
    DenseChunkProvider,
    MarkovChunkProvider,
    StaticChunkProvider,
    StreamingTrace,
    streaming_markov_trace,
)
from repro.mobility.telecom import AccessRecord, TelecomTraceGenerator
from repro.mobility.trace import MobilityTrace, static_trace

__all__ = [
    "DenseChunkProvider",
    "MarkovChunkProvider",
    "StaticChunkProvider",
    "StreamingTrace",
    "streaming_markov_trace",
    "BaseStation",
    "EdgeMap",
    "cluster_stations",
    "make_station_grid",
    "MarkovMobilityModel",
    "AccessRecord",
    "TelecomTraceGenerator",
    "MobilityTrace",
    "static_trace",
]
