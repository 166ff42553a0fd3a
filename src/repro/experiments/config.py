"""Scenario configuration and presets for the evaluation experiments."""

from __future__ import annotations

import math
import numbers
from dataclasses import Field, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional, Tuple, get_args, get_type_hints

from repro.core.edge_sampling import EdgeSamplingConfig
from repro.core.mach import MACHConfig, MACHSampler
from repro.hfl.config import EVAL_CADENCES, HFLConfig
from repro.runtime.base import EXECUTOR_KINDS
from repro.sampling import (
    ClassBalanceSampler,
    MACHOracleSampler,
    Sampler,
    StatisticalSampler,
    UniformSampler,
)
from repro.topology import AGGREGATION_STRATEGIES, TOPOLOGY_KINDS
from repro.utils.validation import check_fraction, check_membership, check_positive

#: Mobility models a scenario can generate its trace from.
TRACE_KINDS: Tuple[str, ...] = ("telecom", "markov", "static")

#: Trace storage backends (see :mod:`repro.mobility.streaming`).
TRACE_BACKENDS: Tuple[str, ...] = ("dense", "streaming")

#: MACH candidate selection modes (see :class:`repro.core.mach.MACHConfig`).
MACH_SELECTIONS: Tuple[str, ...] = ("full", "topk")


def _flag(default: Any, flag: str, help: str, **argparse_kwargs: Any) -> Any:
    """A scenario field the ``run``/``resume`` CLI exposes as ``flag``.

    ``argparse_kwargs`` may carry ``metavar``, ``choices``, a
    ``cli_default`` (otherwise ``None``: keep the preset's value) and
    the help-output ``group``.  The argparse ``type`` is the field's type.
    """
    return field(
        default=default, metadata={"flag": flag, "help": help, **argparse_kwargs}
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified HFL scenario (workload + system + training).

    The defaults mirror the paper's §IV-A.2 base configuration; presets
    below derive the per-task / per-scale variants.  This class is the
    single scenario schema: the ``run`` CLI flags come from the
    :func:`_flag` metadata, and every field shared by name with
    :class:`HFLConfig` is handed over (and validated) by
    :func:`hfl_config_for`.
    """

    task: str = "mnist"
    num_devices: int = _flag(
        100, "--devices", "override the preset's device population size",
        metavar="M", group="scale",
    )
    num_edges: int = _flag(
        10, "--edges", "override the preset's edge count", metavar="N",
        group="scale",
    )
    samples_per_device: int = _flag(
        100, "--samples-per-device",
        "override the preset's per-device dataset size", metavar="S",
        group="scale",
    )
    test_samples: int = 1000
    image_size: Optional[int] = None  # None = paper shape
    model_scale: str = "small"
    dirichlet_alpha: float = 0.3
    imbalance: float = 4.0
    separation: Optional[float] = None  # None = task-spec default
    noise: Optional[float] = None

    participation_fraction: float = _flag(
        0.5, "--participation", "override the preset's participation "
        "fraction (per-edge capacity is F * devices / edges)",
        metavar="F", group="scale",
    )
    local_epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.002
    sync_interval: int = 5
    num_steps: int = _flag(400, "--steps", "override the preset's training horizon")
    target_accuracy: float = 0.75
    trace_kind: str = _flag(
        "telecom", "--trace-kind", "mobility model generating the trace "
        "(default: the preset's; markov recommended at city scale — the "
        "telecom generator sizes its station grid with the population)",
        choices=TRACE_KINDS, group="scale",
    )
    trace_backend: str = _flag(
        "dense", "--trace-backend", "mobility trace storage: materialized "
        "grid, or chunked streaming membership (bounded memory at any "
        "population)",
        choices=TRACE_BACKENDS, group="scale",
    )
    trace_chunk_steps: int = _flag(
        64, "--trace-chunk-steps",
        "streaming-backend chunk length in steps (default: 64)",
        metavar="C", group="scale",
    )
    aggregation: str = "fedavg"  # see repro.hfl.config.AGGREGATION_MODES
    topology: str = _flag(
        "hierarchical", "--topology", "sync-step communication pattern: "
        "the paper's cloud/edge tree, edge clusters with inter-cluster "
        "mixing, or cloudless gossip (default: the preset's, normally "
        "hierarchical)",
        choices=TOPOLOGY_KINDS, group="topology",
    )
    aggregation_strategy: Optional[str] = _flag(
        None, "--aggregation", "sync-step aggregation strategy (default: "
        "the topology's canonical one: ipw / cluster_mix / gossip_avg)",
        choices=AGGREGATION_STRATEGIES, group="topology",
    )
    num_clusters: Optional[int] = _flag(
        None, "--num-clusters", "cluster count for --topology clustered "
        "(default: ceil(sqrt(num_edges)))",
        metavar="C", group="topology",
    )
    cluster_mixing_weight: float = _flag(
        0.25, "--mixing-weight", "inter-cluster mixing weight in [0, 1] "
        "for cluster_mix (default: 0.25)",
        metavar="LAMBDA", group="topology",
    )
    gossip_degree: int = _flag(
        2, "--gossip-degree",
        "peers each edge gossips with per sync step (default: 2)",
        metavar="K", group="topology",
    )
    stay_probability: float = 0.8  # markov trace parameter
    executor: str = _flag(
        "serial", "--executor",
        "runtime backend for device local updates (default: serial)",
        choices=EXECUTOR_KINDS, cli_default="serial",
    )
    num_workers: Optional[int] = _flag(
        None, "--num-workers",
        "worker count for the process executor (default: CPU count)",
    )
    fault_profile: Optional[str] = _flag(
        None, "--fault-profile", "fault injection: a preset "
        "(none/mild/moderate/severe) and/or key=value pairs, e.g. "
        "'severe' or 'dropout=0.2,corruption=0.05'",
        metavar="SPEC",
    )
    churn_profile: Optional[str] = _flag(
        None, "--churn", "open-population churn: a preset "
        "(none/light/moderate/heavy) and/or key=value pairs, e.g. "
        "'moderate' or 'arrival=0.1,departure=0.05,initial_active=0.9'",
        metavar="SPEC",
    )
    max_staleness: int = _flag(
        0, "--max-staleness", "bounded-staleness window: park straggler "
        "uploads and admit them up to S steps late with an age-discounted "
        "weight (default: 0 = drop stragglers; needs a fault profile with "
        "a straggler deadline to matter)",
        metavar="S",
    )
    staleness_discount: float = _flag(
        0.5, "--staleness-discount", "per-step age discount in (0, 1] "
        "applied to an admitted late upload's weight (default: 0.5)",
        metavar="D",
    )
    checkpoint_every: Optional[int] = _flag(
        None, "--checkpoint-every",
        "write a resumable checkpoint every K completed steps", metavar="K",
    )
    checkpoint_path: Optional[str] = _flag(
        None, "--checkpoint-path", "checkpoint file location (default: "
        "checkpoint.json when --checkpoint-every is set)",
        metavar="PATH",
    )
    seed: int = _flag(0, "--seed", "override the preset's master seed")
    mach_alpha: float = 8.0
    mach_beta: float = 2.0
    mach_warmup: int = 0
    mach_ucb_window: str = "recent"
    mach_selection: str = _flag(
        "full", "--mach-selection", "MACH candidate selection: score all "
        "edge members, or argpartition-prescreen top candidates so "
        "strategy cost tracks capacity instead of population",
        choices=MACH_SELECTIONS, group="scale",
    )
    mach_candidate_factor: float = 4.0  # topk pool = factor * capacity
    # Adaptive cadence doubles the eval interval while |Δacc| <
    # eval_accuracy_delta, up to eval_max_interval (None = 8 * base).
    eval_cadence: str = _flag(
        "fixed", "--eval-cadence", "evaluation schedule: every "
        "eval-interval steps, or accuracy-delta triggered backoff for "
        "long horizons",
        choices=EVAL_CADENCES, group="scale",
    )
    eval_max_interval: Optional[int] = None
    eval_accuracy_delta: float = 0.005

    def __post_init__(self) -> None:
        _check_types(self)
        check_positive("num_devices", self.num_devices)
        check_positive("num_edges", self.num_edges)
        check_positive("samples_per_device", self.samples_per_device)
        check_positive("num_steps", self.num_steps)
        check_fraction("target_accuracy", self.target_accuracy)
        check_membership("trace_kind", self.trace_kind, TRACE_KINDS)
        check_membership("trace_backend", self.trace_backend, TRACE_BACKENDS)
        check_positive("trace_chunk_steps", self.trace_chunk_steps)
        check_membership("mach_selection", self.mach_selection, MACH_SELECTIONS)
        check_positive("mach_candidate_factor", self.mach_candidate_factor)
        if self.num_edges > self.num_devices:
            raise ValueError("need at least as many devices as edges")
        # Every rule on a field shared with HFLConfig lives there only.
        hfl_config_for(self, self.seed)
        if self.num_clusters is not None and self.num_clusters > self.num_edges:
            raise ValueError(
                f"num_clusters={self.num_clusters} exceeds the "
                f"{self.num_edges} edges"
            )

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """A copy with the given fields replaced (unknown names rejected)."""
        _reject_unknown(kwargs)
        return replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump of every field (all scalars or ``None``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioConfig":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are rejected explicitly — a typoed or stale field
        in a persisted scenario must fail loudly, not be dropped.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"a scenario must be a dict, got {payload!r}")
        _reject_unknown(payload)
        return cls(**payload)

    @property
    def capacity_per_edge(self) -> float:
        """Average channel capacity K_n implied by the participation target."""
        return self.participation_fraction * self.num_devices / self.num_edges


def _field_types() -> Dict[str, Tuple[type, bool]]:
    """Each field's scalar type (int / float / str) and whether it is Optional."""
    types = {}
    for name, hint in get_type_hints(ScenarioConfig).items():
        args = [arg for arg in get_args(hint) if arg is not type(None)]
        types[name] = (args[0], True) if args else (hint, False)
    return types


#: ``name -> (scalar type, optional)`` for every ScenarioConfig field.
FIELD_TYPES: Dict[str, Tuple[type, bool]] = _field_types()

#: The ScenarioConfig fields the ``run``/``resume`` CLI exposes as flags.
CLI_FIELDS: Tuple[Field, ...] = tuple(
    f for f in fields(ScenarioConfig) if "flag" in f.metadata
)

#: The fields ScenarioConfig hands to HFLConfig unchanged.
_SHARED_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(HFLConfig) if f.name in FIELD_TYPES
)

# An int is a valid float; a bool is neither (it is an int subclass).
_ACCEPTED = {int: numbers.Integral, float: numbers.Real, str: str}


def _check_types(config: ScenarioConfig) -> None:
    for name, (kind, optional) in FIELD_TYPES.items():
        value = getattr(config, name)
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED[kind]):
            allowed = f"{kind.__name__} or None" if optional else kind.__name__
            raise ValueError(f"{name} must be {allowed}, got {value!r}")
        # No float field gives inf or NaN a meaning.
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _reject_unknown(names) -> None:
    unknown = sorted(set(names) - set(FIELD_TYPES))
    if unknown:
        raise ValueError(f"unknown ScenarioConfig fields: {unknown}")


def hfl_config_for(config: ScenarioConfig, seed: int) -> HFLConfig:
    """The :class:`HFLConfig` a scenario implies: the fields the two
    classes share by name, with ``seed`` as the engine's master seed.
    """
    shared = {name: getattr(config, name) for name in _SHARED_FIELDS}
    shared["seed"] = seed
    return HFLConfig(**shared)


def resolve_scenario(
    scenario: Optional[ScenarioConfig], preset: Optional[str], overrides: dict
) -> ScenarioConfig:
    """Exactly one of ``scenario`` or a ``preset`` name, with ``overrides``."""
    if (scenario is None) == (preset is None):
        raise ValueError("provide exactly one of 'scenario' or 'preset'")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        scenario = PRESETS[preset]
    return scenario.with_overrides(**overrides) if overrides else scenario


def _edge_sampling(config: ScenarioConfig) -> EdgeSamplingConfig:
    return EdgeSamplingConfig(
        alpha=config.mach_alpha,
        beta=config.mach_beta,
        warmup_steps=config.mach_warmup,
    )


def _mach(config: ScenarioConfig) -> Sampler:
    return MACHSampler(MACHConfig(
        edge_sampling=_edge_sampling(config),
        sync_interval=config.sync_interval,
        ucb_window=config.mach_ucb_window,
        selection=config.mach_selection,
        candidate_factor=config.mach_candidate_factor,
    ))


#: name -> (Table I abbreviation, factory): the five strategies compared
#: throughout §IV, the first the default.  The names, abbreviations, CLI
#: ``--sampler`` choices and the service's check all derive from it.
SAMPLERS: Dict[str, Tuple[str, Callable[[ScenarioConfig], Sampler]]] = {
    "mach": ("MACH", _mach),
    "mach_p": ("MACH-P", lambda config: MACHOracleSampler(_edge_sampling(config))),
    "uniform": ("US", lambda config: UniformSampler()),
    "class_balance": ("CS", lambda config: ClassBalanceSampler()),
    "statistical": ("SS", lambda config: StatisticalSampler()),
}
SAMPLER_NAMES: Tuple[str, ...] = tuple(SAMPLERS)
SAMPLER_ABBREVIATIONS: Dict[str, str] = {n: e[0] for n, e in SAMPLERS.items()}
DEFAULT_SAMPLER: str = SAMPLER_NAMES[0]


def check_sampler(name: object) -> None:
    """Raise the one unknown-sampler ``ValueError`` unless ``name`` is registered."""
    if name not in SAMPLER_NAMES:  # a tuple: JSON lists and dicts are unhashable
        raise ValueError(f"unknown sampler {name!r}; choose from {SAMPLER_NAMES}")


def make_sampler(name: str, config: ScenarioConfig) -> Sampler:
    """Instantiate the named strategy with the scenario's MACH coefficients."""
    check_sampler(name)
    return SAMPLERS[name][1](config)


def _paper_presets() -> Dict[str, ScenarioConfig]:
    """The paper's own configurations (§IV-A.2): 100 devices, 10 edges,
    50% participation, I=10; per-task γ / T_g / target accuracy."""
    base = ScenarioConfig(
        num_devices=100,
        num_edges=10,
        samples_per_device=500,
        model_scale="paper",
    )
    return {
        "mnist-paper": base.with_overrides(
            task="mnist",
            learning_rate=0.002,
            sync_interval=5,
            target_accuracy=0.75,
            num_steps=400,
        ),
        "fmnist-paper": base.with_overrides(
            task="fmnist",
            learning_rate=0.002,
            sync_interval=5,
            target_accuracy=0.65,
            num_steps=500,
        ),
        "cifar10-paper": base.with_overrides(
            task="cifar10",
            learning_rate=0.02,
            sync_interval=10,
            target_accuracy=0.75,
            num_steps=5000,
        ),
    }


def _bench_presets() -> Dict[str, ScenarioConfig]:
    """CPU-sized configurations preserving the paper's comparative shape:
    same topology ratios (devices : edges : capacity), same Non-IID
    split, reduced resolution / population / horizon."""
    base = ScenarioConfig(
        num_devices=50,
        num_edges=5,
        samples_per_device=60,
        test_samples=400,
        image_size=12,
        model_scale="tiny",
        batch_size=8,
        local_epochs=5,
        num_steps=260,
        dirichlet_alpha=0.1,
        imbalance=8.0,
        mach_alpha=50.0,
        mach_beta=0.5,
    )
    return {
        "mnist-bench": base.with_overrides(
            task="mnist",
            separation=0.7,
            noise=1.1,
            learning_rate=0.01,
            sync_interval=5,
            target_accuracy=0.93,
        ),
        "fmnist-bench": base.with_overrides(
            task="fmnist",
            separation=0.6,
            noise=1.2,
            learning_rate=0.01,
            sync_interval=5,
            target_accuracy=0.87,
        ),
        "cifar10-bench": base.with_overrides(
            task="cifar10",
            separation=0.42,
            noise=1.35,
            learning_rate=0.02,
            sync_interval=10,
            target_accuracy=0.80,
            num_steps=400,
        ),
        # Flat-feature scenario for the fastest sweeps and unit benches.
        "blobs-bench": base.with_overrides(
            task="blobs",
            image_size=None,
            separation=0.8,
            noise=1.3,
            learning_rate=0.08,
            local_epochs=10,
            sync_interval=5,
            target_accuracy=0.73,
            num_steps=160,
        ),
    }


#: All named presets; benchmark targets default to the ``*-bench`` family.
PRESETS: Dict[str, ScenarioConfig] = {**_paper_presets(), **_bench_presets()}
