"""MACH decision audit trail: why each device was (not) sampled.

For every ``(step, edge)`` round the trail records, per candidate
device inside the edge:

- the **empirical term** of Eq. (15) — the exploitation component of
  the device's UCB score G̃²_m at its last refresh;
- the **UCB exploration bonus** — ``√(log(t)/Σ 1^{t'}_{m,n})``, infinite
  for never-sampled devices;
- the resulting **G̃²_m estimate** the edge strategy consumed;
- the **sampling probability** q^t_{m,n} produced by Eqs. (16)–(18);
- the drawn **participation indicator** 1^t_{m,n}.

This makes the sampling-vs-mobility interplay replayable offline: the
engine draws the indicators from the named stream
``(master_seed, step, edge, "participation")``, so
:meth:`MACHAuditTrail.replay_indicators` can recompute every round's
Bernoulli draw *from the logged probabilities alone* and
:meth:`MACHAuditTrail.verify_replay` asserts the recomputation matches
the logged indicators bit for bit — the audit trail is a proof, not
just a trace.

Samplers that are not UCB-based still get probability/indicator audit
rows; their term columns are ``None`` (see
:meth:`repro.sampling.base.Sampler.audit_components`).

The trail only *reads* sampler state and the already-drawn indicators;
it never consumes randomness or enters any ``state_dict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SamplingDecision", "MACHAuditTrail"]


def _jsonable(values: Optional[Sequence[float]]) -> Optional[List[Optional[float]]]:
    """Floats → JSON-compatible list; non-finite values become strings."""
    if values is None:
        return None
    out: List[Any] = []
    for v in values:
        if v is None:
            out.append(None)
        elif math.isinf(v):
            out.append("inf" if v > 0 else "-inf")
        elif math.isnan(v):
            out.append("nan")
        else:
            out.append(float(v))
    return out


def _from_jsonable(values: Optional[Sequence[Any]]) -> Optional[List[float]]:
    if values is None:
        return None
    return [
        v if v is None else float(v) for v in values
    ]


@dataclass(frozen=True)
class SamplingDecision:
    """The audit record of one (step, edge) sampling round."""

    t: int
    edge: int
    #: Candidate device ids (the edge's members at step ``t``).
    devices: Tuple[int, ...]
    #: Sampling probability per candidate (Eqs. (16)–(18) output).
    probabilities: Tuple[float, ...]
    #: Drawn participation indicator per candidate.
    indicators: Tuple[bool, ...]
    #: Eq. (15) exploitation term per candidate (None: non-UCB sampler).
    empirical: Optional[Tuple[float, ...]] = None
    #: Eq. (15) exploration bonus per candidate (None: non-UCB sampler).
    bonus: Optional[Tuple[float, ...]] = None
    #: The G̃²_m estimate the edge strategy consumed (None: non-UCB).
    estimate: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        n = len(self.devices)
        for name in ("probabilities", "indicators", "empirical", "bonus", "estimate"):
            value = getattr(self, name)
            if value is not None and len(value) != n:
                raise ValueError(
                    f"{name} has {len(value)} entries for {n} candidates"
                )

    @property
    def sampled(self) -> Tuple[int, ...]:
        """The device ids whose indicator was drawn 1."""
        return tuple(
            m for m, drawn in zip(self.devices, self.indicators) if drawn
        )

    def to_event(self) -> Dict[str, Any]:
        """JSON-compatible payload of one ``sampling`` event."""
        event: Dict[str, Any] = {
            "t": self.t,
            "edge": self.edge,
            "devices": list(self.devices),
            "probabilities": [float(q) for q in self.probabilities],
            "indicators": [int(i) for i in self.indicators],
        }
        event["empirical"] = _jsonable(self.empirical)
        event["bonus"] = _jsonable(self.bonus)
        event["estimate"] = _jsonable(self.estimate)
        return event

    @classmethod
    def from_event(cls, event: Dict[str, Any]) -> "SamplingDecision":
        """Rebuild a decision from a parsed ``sampling`` event."""

        def terms(name: str) -> Optional[Tuple[float, ...]]:
            values = _from_jsonable(event.get(name))
            return None if values is None else tuple(values)

        return cls(
            t=int(event["t"]),
            edge=int(event["edge"]),
            devices=tuple(int(m) for m in event["devices"]),
            probabilities=tuple(float(q) for q in event["probabilities"]),
            indicators=tuple(bool(i) for i in event["indicators"]),
            empirical=terms("empirical"),
            bonus=terms("bonus"),
            estimate=terms("estimate"),
        )


class MACHAuditTrail:
    """In-memory collection of per-round sampling decisions.

    The trainer records into the trail as rounds are planned; an
    attached :class:`~repro.obs.events.EventLog` (if any) receives each
    decision as a ``sampling`` event at the same moment, so the on-disk
    and in-memory views never diverge.
    """

    def __init__(self, event_log=None) -> None:
        self.decisions: List[SamplingDecision] = []
        self._event_log = event_log

    def record_sampling(
        self,
        t: int,
        edge: int,
        devices: Sequence[int],
        probabilities: Sequence[float],
        indicators: Sequence[bool],
        components: Optional[Dict[str, Sequence[float]]] = None,
    ) -> None:
        """Record one planned round (``components`` from the sampler's
        :meth:`~repro.sampling.base.Sampler.audit_components`; the
        observability handle computes them only when a trail listens)."""
        components = components or {}

        def term(name: str) -> Optional[Tuple[float, ...]]:
            values = components.get(name)
            return None if values is None else tuple(float(v) for v in values)

        decision = SamplingDecision(
            t=int(t),
            edge=int(edge),
            devices=tuple(int(m) for m in devices),
            probabilities=tuple(float(q) for q in probabilities),
            indicators=tuple(bool(i) for i in indicators),
            empirical=term("empirical"),
            bonus=term("bonus"),
            estimate=term("estimate"),
        )
        self.decisions.append(decision)
        if self._event_log is not None:
            self._event_log.emit("sampling", **decision.to_event())

    # -- offline queries -----------------------------------------------------

    def sampled_sets(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """Per-(step, edge) sampled device set, from the logged indicators."""
        return {(d.t, d.edge): d.sampled for d in self.decisions}

    def replay_indicators(
        self, master_seed: int
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Re-draw every round's indicators from the logged probabilities.

        Uses exactly the engine's named stream
        ``round_generator(t, edge, "participation")`` and Bernoulli rule
        (:meth:`repro.hfl.edge.Edge.draw_participation`), so for the
        true master seed the result equals the logged indicators.
        """
        from repro.hfl.edge import Edge
        from repro.utils.rng import SeedSequenceFactory

        seeds = SeedSequenceFactory(master_seed)
        replayed: Dict[Tuple[int, int], np.ndarray] = {}
        for d in self.decisions:
            rng = seeds.round_generator(d.t, d.edge, "participation")
            replayed[(d.t, d.edge)] = Edge.draw_participation(
                np.asarray(d.probabilities, dtype=float), rng=rng
            )
        return replayed

    def verify_replay(self, master_seed: int) -> bool:
        """Check the logged indicators against a fresh seeded replay.

        Returns True when every round's logged indicators (hence every
        sampled set) is exactly reproduced from the logged probabilities
        and the master seed; raises ``ValueError`` naming the first
        divergent round otherwise.
        """
        replayed = self.replay_indicators(master_seed)
        for d in self.decisions:
            drawn = replayed[(d.t, d.edge)]
            if not np.array_equal(drawn, np.asarray(d.indicators, dtype=bool)):
                raise ValueError(
                    f"audit replay diverged at step {d.t}, edge {d.edge}: "
                    f"logged {list(map(int, d.indicators))}, replayed "
                    f"{list(map(int, drawn))}"
                )
        return True

    @classmethod
    def from_events(cls, events: Iterable[Dict[str, Any]]) -> "MACHAuditTrail":
        """Rebuild a trail from a parsed event log's ``sampling`` events."""
        trail = cls()
        trail.decisions = [
            SamplingDecision.from_event(e)
            for e in events
            if e.get("type") == "sampling"
        ]
        return trail
