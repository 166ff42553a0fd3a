"""Micro-benchmarks of the performance-critical substrate operations.

These use pytest-benchmark's real timing loop (multiple rounds) and
track the hot paths of one HFL time step: local SGD updates, the im2col
convolution, edge-strategy computation, participation draws, trace
generation and aggregation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.edge_sampling import EdgeSamplingConfig, edge_strategy
from repro.data.synthetic import make_blobs_dataset, make_synthetic_image_dataset
from repro.hfl.device import Device, LocalUpdateResult
from repro.hfl.edge import Edge
from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.telecom import TelecomTraceGenerator
from repro.nn.architectures import build_mlp, build_mnist_cnn
from repro.nn.functional import im2col


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_bench_local_update_mlp(benchmark, rng):
    device = Device(0, make_blobs_dataset(60, rng=rng))
    model = build_mlp(16, hidden=(16,), rng=rng)
    start = model.flat_copy()
    benchmark(
        device.local_update, start, model, 5, 0.05, 8, np.random.default_rng(1)
    )


def test_bench_local_update_cnn(benchmark, rng):
    dataset = make_synthetic_image_dataset("mnist", 60, image_size=12, rng=rng)
    device = Device(0, dataset)
    model = build_mnist_cnn((1, 12, 12), width=2, hidden=16, rng=rng)
    start = model.flat_copy()
    benchmark(
        device.local_update, start, model, 5, 0.05, 8, np.random.default_rng(1)
    )


def test_bench_im2col(benchmark, rng):
    x = rng.normal(size=(8, 3, 32, 32))
    benchmark(im2col, x, 3, 1, 1)


def test_bench_edge_strategy(benchmark, rng):
    estimates = rng.lognormal(size=100)
    config = EdgeSamplingConfig(alpha=8.0, beta=2.0)
    benchmark(edge_strategy, estimates, 10.0, config)


def test_bench_edge_aggregation(benchmark, rng):
    dim = 5000
    edge = Edge(0, 5.0, dim)
    edge.set_model(rng.normal(size=dim))
    sampled = list(range(5))
    q = np.full(5, 0.5)
    results = {
        m: LocalUpdateResult(m, rng.normal(size=dim), [1.0], 0.5) for m in sampled
    }
    benchmark(edge.aggregate, sampled, q, results, 10, mode="fedavg")


def test_bench_markov_trace_generation(benchmark):
    model = MarkovMobilityModel.stay_or_jump(10, 0.8)
    benchmark(model.sample_trace, 500, 100, np.random.default_rng(0))


def test_bench_telecom_trace_generation(benchmark):
    def build():
        generator = TelecomTraceGenerator(
            num_devices=50, num_stations=150, rng=np.random.default_rng(0)
        )
        return generator.generate_trace(num_steps=100, num_edges=5)

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_bench_participation_draw(benchmark):
    q = np.full(1000, 0.5)
    rng = np.random.default_rng(0)
    benchmark(Edge.draw_participation, q, rng)
