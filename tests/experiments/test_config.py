"""Tests for the experiment scenario configuration and presets."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mach import MACHSampler
from repro.experiments import runner
from repro.experiments.config import (
    FIELD_TYPES,
    PRESETS,
    SAMPLER_ABBREVIATIONS,
    SAMPLER_NAMES,
    SAMPLERS,
    ScenarioConfig,
    make_sampler,
)
from repro.sampling import (
    ClassBalanceSampler,
    MACHOracleSampler,
    StatisticalSampler,
    UniformSampler,
)


class TestScenarioConfig:
    def test_defaults_valid(self):
        ScenarioConfig()

    def test_with_overrides_immutable(self):
        base = ScenarioConfig()
        derived = base.with_overrides(num_edges=3)
        assert derived.num_edges == 3
        assert base.num_edges == 10

    def test_capacity_per_edge(self):
        config = ScenarioConfig(
            num_devices=100, num_edges=10, participation_fraction=0.5
        )
        assert config.capacity_per_edge == pytest.approx(5.0)  # the paper's K_n

    def test_rejects_more_edges_than_devices(self):
        with pytest.raises(ValueError, match="at least as many"):
            ScenarioConfig(num_devices=3, num_edges=5)

    def test_rejects_bad_trace_kind(self):
        with pytest.raises(ValueError):
            ScenarioConfig(trace_kind="teleport")

    @pytest.mark.parametrize("overrides, message", [
        # Values HFLConfig rejects; the scenario must reject them too.
        ({"executor": "gpu"}, "executor"),
        ({"aggregation": "bogus"}, "aggregation"),
        ({"learning_rate": -1}, "learning_rate"),
        ({"batch_size": 0}, "batch_size"),
        ({"local_epochs": 0}, "local_epochs"),
        ({"sync_interval": 0}, "sync_interval"),
        ({"num_workers": 0}, "num_workers"),
        ({"eval_max_interval": 1, "sync_interval": 5}, "eval_max_interval"),
        # Wrong types name the field.
        ({"num_steps": "3"}, "num_steps must be int"),
        ({"learning_rate": "0.1"}, "learning_rate must be float"),
        ({"learning_rate": True}, "learning_rate must be float"),
        ({"num_devices": True}, "num_devices must be int"),
        ({"seed": 1.5}, "seed must be int"),
        ({"seed": "7"}, "seed must be int"),
        ({"num_workers": 2.0}, "num_workers must be int or None"),
        ({"topology": 3}, "topology must be str"),
        # Hostile values fail at construction, naming the field.
        ({"seed": -5}, "seed must be >= 0"),
        ({"dirichlet_alpha": float("inf")}, "dirichlet_alpha must be finite"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite"),
        ({"separation": -float("inf")}, "separation must be finite"),
    ])
    def test_rejects_bad_values(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig(**overrides)
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig().with_overrides(**overrides)

    def test_int_is_a_valid_float(self):
        assert ScenarioConfig(learning_rate=1).learning_rate == 1

    def test_topology_fields_validated(self):
        ScenarioConfig(topology="gossip", gossip_degree=3)
        ScenarioConfig(
            topology="clustered", num_clusters=4, cluster_mixing_weight=0.5
        )
        ScenarioConfig(topology="clustered", aggregation_strategy="gossip_avg")
        with pytest.raises(ValueError, match="unknown topology"):
            ScenarioConfig(topology="ring")
        with pytest.raises(ValueError, match="does not support"):
            ScenarioConfig(topology="gossip", aggregation_strategy="ipw")
        with pytest.raises(ValueError, match="exceeds"):
            ScenarioConfig(num_edges=4, topology="clustered", num_clusters=5)
        with pytest.raises(ValueError):
            ScenarioConfig(cluster_mixing_weight=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(topology="gossip", gossip_degree=0)


class TestScenarioSerialization:
    def test_to_dict_round_trip_is_exact(self):
        config = ScenarioConfig(
            topology="clustered",
            num_clusters=3,
            cluster_mixing_weight=0.4,
            fault_profile="moderate",
            seed=7,
        )
        payload = config.to_dict()
        assert payload["topology"] == "clustered"
        assert ScenarioConfig.from_dict(payload) == config

    def test_round_trip_survives_json(self):
        import json

        config = PRESETS["blobs-bench"].with_overrides(topology="gossip")
        rebuilt = ScenarioConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt == config

    def test_unknown_fields_rejected(self):
        payload = ScenarioConfig().to_dict()
        payload["gossip_degre"] = 3  # typo must fail loudly, not be dropped
        with pytest.raises(ValueError, match="unknown ScenarioConfig fields"):
            ScenarioConfig.from_dict(payload)

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ScenarioConfig fields"):
            ScenarioConfig().with_overrides(gossip_degre=3)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            ScenarioConfig.from_dict(["num_steps"])


class TestPresets:
    def test_all_tasks_have_both_presets(self):
        for task in ("mnist", "fmnist", "cifar10"):
            assert f"{task}-paper" in PRESETS
            assert f"{task}-bench" in PRESETS

    def test_paper_presets_match_section_iv(self):
        """§IV-A.2 parameters are encoded exactly."""
        mnist = PRESETS["mnist-paper"]
        assert mnist.num_devices == 100
        assert mnist.num_edges == 10
        assert mnist.participation_fraction == 0.5
        assert mnist.learning_rate == 0.002
        assert mnist.sync_interval == 5
        assert mnist.local_epochs == 10
        assert mnist.target_accuracy == 0.75
        cifar = PRESETS["cifar10-paper"]
        assert cifar.learning_rate == 0.02
        assert cifar.sync_interval == 10
        assert cifar.target_accuracy == 0.75
        assert PRESETS["fmnist-paper"].target_accuracy == 0.65

    def test_bench_presets_are_cpu_sized(self):
        for task in ("mnist", "fmnist", "cifar10"):
            bench = PRESETS[f"{task}-bench"]
            paper = PRESETS[f"{task}-paper"]
            assert bench.num_devices < paper.num_devices
            assert bench.image_size is not None
            assert bench.model_scale == "tiny"

    def test_bench_presets_keep_topology_ratio(self):
        """devices-per-edge and participation match the paper setting."""
        for task in ("mnist", "fmnist", "cifar10"):
            bench = PRESETS[f"{task}-bench"]
            assert bench.num_devices / bench.num_edges == 10
            assert bench.participation_fraction == 0.5


class TestMakeSampler:
    def test_all_names_constructible(self):
        config = ScenarioConfig()
        expected = {
            "mach": MACHSampler,
            "mach_p": MACHOracleSampler,
            "uniform": UniformSampler,
            "class_balance": ClassBalanceSampler,
            "statistical": StatisticalSampler,
        }
        assert set(SAMPLER_NAMES) == set(expected)
        for name, (_abbreviation, factory) in SAMPLERS.items():
            assert type(factory(config)) is expected[name]
            assert type(make_sampler(name, config)) is expected[name]

    def test_abbreviations_cover_all(self):
        assert set(SAMPLER_ABBREVIATIONS) == set(SAMPLER_NAMES)
        for name, (abbreviation, _factory) in SAMPLERS.items():
            assert abbreviation
            assert SAMPLER_ABBREVIATIONS[name] == abbreviation

    def test_run_cli_choices_are_the_registry(self):
        (action,) = [
            action for action in runner._run_parser()._actions
            if "--sampler" in action.option_strings
        ]
        assert tuple(action.choices) == SAMPLER_NAMES

    def test_mach_inherits_scenario_coefficients(self):
        config = ScenarioConfig(
            mach_alpha=3.0, mach_beta=1.0, sync_interval=7, mach_ucb_window="lifetime"
        )
        sampler = make_sampler("mach", config)
        assert sampler.config.edge_sampling.alpha == 3.0
        assert sampler.config.sync_interval == 7
        assert sampler.config.ucb_window == "lifetime"

    def test_unknown_name(self):
        with pytest.raises(ValueError) as excinfo:
            make_sampler("oracle9000", ScenarioConfig())
        assert str(excinfo.value) == (
            f"unknown sampler 'oracle9000'; choose from {SAMPLER_NAMES}"
        )


#: Any JSON-like scalar or container a request body could carry.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
#: Values of the right type, so validation reaches the range checks.
_TYPED_VALUES = {
    int: st.integers(min_value=-3, max_value=10**6),
    float: st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=-1.0, max_value=2.0),
    str: st.sampled_from(
        ["none", "light", "moderate", "severe", "markov", "streaming",
         "gossip", "clustered", "ipw", "process", "topk", "adaptive",
         "dropout=0.2", "jitter=nan", "deadline=inf", "bogus", ""]
    ),
}


@st.composite
def scenario_dicts(draw):
    """A preset's dict (or nothing) with some fields replaced or added."""
    payload = draw(st.sampled_from([{}, PRESETS["blobs-bench"].to_dict()]))
    payload = dict(payload)
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(FIELD_TYPES)) | st.text(max_size=8))
        kind = FIELD_TYPES.get(name, (None, False))[0]
        values = _JSON_VALUES
        if kind is not None:
            values = _TYPED_VALUES[kind] | _JSON_VALUES
        payload[name] = draw(values)
    return payload


@given(payload=scenario_dicts())
@settings(max_examples=300, deadline=None)
def test_from_dict_builds_or_raises_value_error(payload):
    """Every scenario dict either builds a valid config or is refused
    with a ValueError; no other exception escapes."""
    try:
        config = ScenarioConfig.from_dict(payload)
    except ValueError:
        return
    assert config.seed >= 0
    for name, (kind, _optional) in FIELD_TYPES.items():
        value = getattr(config, name)
        if kind is float and value is not None:
            assert math.isfinite(value), name
