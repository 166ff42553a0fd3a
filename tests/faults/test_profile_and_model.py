"""Tests for repro.faults: profiles, presets, and the seeded fault model."""

import math

import numpy as np
import pytest

from repro.faults import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultProfile,
    SeededFaultModel,
    make_fault_model,
    resolve_fault_profile,
)
from repro.hfl.latency import LatencySimulator
from repro.utils.rng import SeedSequenceFactory


class TestFaultProfile:
    def test_default_is_inactive(self):
        assert not FaultProfile().active
        assert make_fault_model(FaultProfile()) is None
        assert make_fault_model(None) is None

    def test_any_rate_activates(self):
        assert FaultProfile(dropout_rate=0.1).active
        assert FaultProfile(mobility_departure_rate=0.1).active
        assert FaultProfile(straggler_deadline_seconds=1.0).active
        assert FaultProfile(corruption_rate=0.1).active
        assert FaultProfile(sync_failure_rate=0.1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dropout_rate": 1.5},
            {"corruption_rate": -0.1},
            {"sync_failure_rate": 2.0},
            {"straggler_deadline_seconds": 0.0},
            {"straggler_jitter_sigma": -1.0},
            {"max_sync_retries": -1},
            {"backoff_base_seconds": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultProfile(**kwargs)

    def test_backoff_is_bounded_exponential(self):
        profile = FaultProfile(
            backoff_base_seconds=1.0, backoff_cap_seconds=4.0
        )
        assert profile.backoff_seconds(0) == 0.0
        assert profile.backoff_seconds(1) == 1.0
        assert profile.backoff_seconds(2) == 3.0  # 1 + 2
        assert profile.backoff_seconds(4) == 11.0  # 1 + 2 + 4 + 4 (capped)
        with pytest.raises(ValueError):
            profile.backoff_seconds(-1)

    def test_presets_cover_every_kind(self):
        severe = FAULT_PRESETS["severe"]
        assert severe.dropout_rate > 0
        assert severe.mobility_departure_rate > 0
        assert severe.straggler_deadline_seconds is not None
        assert severe.corruption_rate > 0
        assert severe.sync_failure_rate > 0
        assert not FAULT_PRESETS["none"].active


class TestResolveFaultProfile:
    def test_none_and_instance_pass_through(self):
        assert resolve_fault_profile(None) is None
        profile = FaultProfile(dropout_rate=0.2)
        assert resolve_fault_profile(profile) is profile

    def test_preset_name(self):
        assert resolve_fault_profile("mild") == FAULT_PRESETS["mild"]

    def test_key_value_pairs(self):
        profile = resolve_fault_profile("dropout=0.2,corruption=0.05")
        assert profile.dropout_rate == 0.2
        assert profile.corruption_rate == 0.05
        assert profile.sync_failure_rate == 0.0

    def test_preset_with_overrides(self):
        profile = resolve_fault_profile("severe,deadline=9.5,max_sync_retries=7")
        assert profile.dropout_rate == FAULT_PRESETS["severe"].dropout_rate
        assert profile.straggler_deadline_seconds == 9.5
        assert profile.max_sync_retries == 7

    def test_rejects_unknown_preset_and_key(self):
        with pytest.raises(ValueError, match="unknown fault preset"):
            resolve_fault_profile("catastrophic")
        with pytest.raises(ValueError, match="unknown fault spec key"):
            resolve_fault_profile("meteor=1.0")
        with pytest.raises(ValueError, match="preset name must come first"):
            resolve_fault_profile("dropout=0.1,mild")
        with pytest.raises(TypeError):
            resolve_fault_profile(42)


def bound_model(profile, num_devices=8, seed=0):
    model = SeededFaultModel(profile)
    model.bind(num_devices, SeedSequenceFactory(seed))
    return model


def round_faults(model, t, e, devices, departed=None, num_concurrent=None,
                 payload_size=64):
    """One ``upload_faults`` call over plain lists."""
    devices = np.asarray(devices, dtype=np.int64)
    if departed is None:
        departed = np.zeros(devices.size, dtype=bool)
    return model.upload_faults(
        t, e, devices, np.asarray(departed, dtype=bool),
        devices.size if num_concurrent is None else num_concurrent,
        payload_size,
    )


def decisions(faults):
    """A comparable form of an UploadFaults (NaN bursts compare by bytes)."""
    return (
        list(faults.lost.items()),
        [(m, p.tolist(), v.tobytes()) for m, (p, v) in faults.bursts.items()],
    )


def oracle_faults(profile, seed, num_devices, t, e, devices, departed,
                  payload_size):
    """The round's faults recomputed device by device from the raw stream.

    Layout: the devices in ascending id order; a ``(n, 3)`` block of
    (departure, dropout, corruption) uniforms, then ``n`` lognormal
    jitters; then the bursts of the corrupted survivors, in order.
    """
    seeds = SeedSequenceFactory(seed).child("faults")
    rng = seeds.round_generator(t, e, "fault/upload")
    uniforms = rng.random((len(devices), 3))
    jitter = rng.lognormal(0.0, profile.straggler_jitter_sigma, len(devices))
    latency = LatencySimulator(
        num_devices, profile.latency, rng=seeds.generator("device-speeds")
    )
    lost, corrupted = {}, []
    for i, m in enumerate(devices):
        if (departed[i] and uniforms[i, 0] < profile.mobility_departure_rate) \
                or uniforms[i, 1] < profile.dropout_rate:
            lost[m] = "departure"
        elif profile.straggler_deadline_seconds is not None and (
            latency.compute_seconds(m) * jitter[i]
            + latency.upload_seconds(len(devices))
            > profile.straggler_deadline_seconds
        ):
            lost[m] = "straggler"
        elif uniforms[i, 2] < profile.corruption_rate:
            corrupted.append(m)
    num_bad = max(1, payload_size // 1024)
    bursts = {
        m: (
            rng.integers(0, payload_size, size=num_bad),
            rng.choice([np.nan, np.inf, -np.inf], size=num_bad),
        )
        for m in corrupted
    }
    return lost, bursts


class TestSeededFaultModel:
    def test_requires_bind(self):
        model = SeededFaultModel(FaultProfile(dropout_rate=1.0))
        with pytest.raises(RuntimeError, match="bind"):
            round_faults(model, 0, 0, [0])

    def test_rejects_non_profile(self):
        with pytest.raises(TypeError):
            SeededFaultModel({"dropout_rate": 1.0})

    def test_draws_are_reproducible_and_order_free(self):
        """The same (step, edge) round gives the same decisions however
        the rounds are queried — the determinism contract."""
        profile = FaultProfile(
            dropout_rate=0.3, mobility_departure_rate=0.5, corruption_rate=0.3
        )
        a = bound_model(profile)
        b = bound_model(profile)
        rounds = [(t, e) for t in range(6) for e in range(3)]
        devices = list(range(6))
        departed = [m % 2 == 0 for m in devices]
        forward = [
            decisions(round_faults(a, t, e, devices, departed))
            for t, e in rounds
        ]
        backward = [
            decisions(round_faults(b, t, e, devices, departed))
            for t, e in reversed(rounds)
        ]
        assert forward == list(reversed(backward))
        assert any(lost for lost, _ in forward)
        assert any(bursts for _, bursts in forward)

    def test_seed_changes_decisions(self):
        profile = FaultProfile(dropout_rate=0.5)
        a, b = bound_model(profile, seed=0), bound_model(profile, seed=99)
        devices = list(range(8))
        assert [
            decisions(round_faults(a, t, 0, devices)) for t in range(10)
        ] != [decisions(round_faults(b, t, 0, devices)) for t in range(10)]

    def test_certain_mobility_departure(self):
        model = bound_model(FaultProfile(mobility_departure_rate=1.0))
        faults = round_faults(model, 0, 0, [0, 1], departed=[True, False])
        assert faults.lost == {0: "departure"}

    def test_straggler_respects_deadline(self):
        generous = bound_model(
            FaultProfile(
                straggler_deadline_seconds=1e6, straggler_jitter_sigma=0.0
            )
        )
        devices = list(range(8))
        assert round_faults(generous, 0, 0, devices, num_concurrent=4).lost == {}
        impossible = bound_model(
            FaultProfile(
                straggler_deadline_seconds=1e-9, straggler_jitter_sigma=0.0
            )
        )
        assert round_faults(impossible, 0, 0, devices, num_concurrent=4).lost == {
            m: "straggler" for m in devices
        }

    def test_corruption_injects_non_finite(self):
        model = bound_model(FaultProfile(corruption_rate=1.0))
        faults = round_faults(model, 0, 0, [0, 3], payload_size=4096)
        assert faults.lost == {} and list(faults.bursts) == [0, 3]
        for positions, values in faults.bursts.values():
            assert positions.shape == values.shape == (4,)
            assert np.all((0 <= positions) & (positions < 4096))
            assert not np.any(np.isfinite(values))

    def test_no_corruption_at_zero_rate(self):
        model = bound_model(FaultProfile(dropout_rate=0.5))
        assert round_faults(model, 0, 0, list(range(8))).bursts == {}

    @pytest.mark.parametrize(
        "profile",
        [
            FAULT_PRESETS["moderate"],
            FAULT_PRESETS["severe"],
            FAULT_PRESETS["moderate"].with_overrides(
                straggler_jitter_sigma=0.0, straggler_deadline_seconds=2.0
            ),
        ],
        ids=["moderate", "severe", "moderate-no-jitter"],
    )
    def test_round_matches_oracle(self, profile):
        """Decisions and bursts equal those recomputed from the round's
        ``fault/upload`` stream, over departed and stayed devices."""
        num_devices, seed, payload_size = 32, 5, 3000
        model = bound_model(profile, num_devices=num_devices, seed=seed)
        layout = np.random.default_rng(0)
        seen = set()
        for t in range(150):
            e = t % 3
            devices = sorted(
                layout.choice(num_devices, size=8, replace=False).tolist()
            )
            departed = (layout.random(8) < 0.5).tolist()
            faults = round_faults(
                model, t, e, devices, departed, payload_size=payload_size
            )
            lost, bursts = oracle_faults(
                profile, seed, num_devices, t, e, devices, departed,
                payload_size,
            )
            assert list(faults.lost.items()) == list(lost.items())
            assert list(faults.bursts) == list(bursts)
            for m, (positions, values) in bursts.items():
                got_positions, got_values = faults.bursts[m]
                np.testing.assert_array_equal(got_positions, positions)
                np.testing.assert_array_equal(got_values, values)
            seen.update(lost.values())
            seen.update(["corruption"] if bursts else [])
        assert seen == {"departure", "straggler", "corruption"}

    def test_kind_frequencies_match_profile_rates(self):
        """Over 2,000 rounds each kind fires at its profile rate (4σ)."""
        profile = FaultProfile(
            dropout_rate=0.1,
            mobility_departure_rate=0.3,
            straggler_deadline_seconds=2.5,
            straggler_jitter_sigma=0.5,
            corruption_rate=0.05,
        )
        num_devices = 16
        model = bound_model(profile, num_devices=num_devices, seed=3)
        latency = model._latency
        devices = np.arange(num_devices)
        departed = devices % 2 == 1
        upload = latency.upload_seconds(num_devices)
        # P(compute * lognormal jitter + upload > deadline), per device.
        threshold = np.log(
            (profile.straggler_deadline_seconds - upload)
            * latency.speeds / latency.config.compute_seconds_per_step
        ) / profile.straggler_jitter_sigma
        p_late = np.array([0.5 * math.erfc(z / math.sqrt(2)) for z in threshold])
        trials = {k: [] for k in ("stayed", "departed", "late", "corrupt")}
        for t in range(2000):
            faults = round_faults(model, t, 0, devices, departed)
            for m in devices.tolist():
                kind = faults.lost.get(m)
                trials["departed" if departed[m] else "stayed"].append(
                    (kind == "departure", None)
                )
                if kind == "departure":
                    continue
                trials["late"].append((kind == "straggler", p_late[m]))
                if kind is None:
                    trials["corrupt"].append((m in faults.bursts, None))
        rates = {
            "stayed": profile.dropout_rate,
            "departed": 1 - (1 - profile.mobility_departure_rate)
            * (1 - profile.dropout_rate),
            "corrupt": profile.corruption_rate,
        }
        for name, outcomes in trials.items():
            hits = np.array([hit for hit, _ in outcomes], dtype=float)
            p = (
                np.array([p for _, p in outcomes])
                if name == "late"
                else np.full(hits.size, rates[name])
            )
            sigma = math.sqrt(float(np.sum(p * (1 - p))))
            assert abs(hits.sum() - p.sum()) <= 4 * sigma, name

    def test_sync_outcome_contract(self):
        never = bound_model(FaultProfile(dropout_rate=0.5))
        outcome = never.sync_outcome(0, 0)
        assert outcome.success and outcome.failed_attempts == 0

        always = bound_model(
            FaultProfile(sync_failure_rate=1.0, max_sync_retries=2)
        )
        outcome = always.sync_outcome(0, 0)
        assert not outcome.success
        assert outcome.failed_attempts == 3  # initial attempt + 2 retries
        assert outcome.backoff_seconds > 0

    def test_sync_outcome_reproducible(self):
        profile = FaultProfile(sync_failure_rate=0.5, max_sync_retries=3)
        a, b = bound_model(profile), bound_model(profile)
        assert [a.sync_outcome(t, 0) for t in range(20)] == [
            b.sync_outcome(t, 0) for t in range(20)
        ]

    def test_fault_kinds_are_canonical(self):
        model = bound_model(
            FaultProfile(
                dropout_rate=0.5,
                mobility_departure_rate=1.0,
                straggler_deadline_seconds=1e-9,
                straggler_jitter_sigma=0.0,
                corruption_rate=1.0,
            )
        )
        faults = round_faults(model, 0, 0, list(range(8)), [True] * 4 + [False] * 4)
        assert set(faults.lost.values()) <= set(FAULT_KINDS)
