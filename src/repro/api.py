"""repro.api — the stable public surface of the repro engine.

Everything user code should need is re-exported or defined here, under
a versioned contract (:data:`API_VERSION`): the CLI, the examples and
the coordinator service all route through this module, so the engine's
internals can keep churning without breaking callers.

Three entry points, by increasing ambition:

- :func:`run_scenario` — synchronous: build a scenario, run one
  sampler, return the :class:`TrainingResult`.  The programmatic twin
  of ``python -m repro.experiments.runner run``.
- :func:`submit` — asynchronous, in-process: hand a scenario to a
  :class:`Coordinator` and get a :class:`RunHandle` to stream, pause
  or wait on.
- :func:`attach` — remote: connect to a served coordinator by URL and
  drive it through the same :class:`RunHandle` surface.

Example::

    import repro.api as api

    result = api.run_scenario(preset="blobs-bench", sampler="mach")

    handle = api.submit(api.PRESETS["blobs-bench"], sampler="mach")
    for round_status in handle.stream(follow=True):
        print(round_status.step, round_status.accuracy)
    result = handle.result()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.experiments.config import (
    PRESETS,
    SAMPLER_NAMES,
    ScenarioConfig,
    make_sampler,
    resolve_scenario,
)
from repro.hfl.trainer import StepOutcome, TrainingResult
from repro.service.client import ServiceClient, ServiceError
from repro.service.coordinator import Coordinator
from repro.service.http import API_VERSION
from repro.service.types import RoundStatus, RunResultSummary, RunStatus

__all__ = [
    "API_VERSION",
    "Coordinator",
    "PRESETS",
    "RoundStatus",
    "RunHandle",
    "RunResultSummary",
    "RunStatus",
    "SAMPLER_NAMES",
    "ScenarioConfig",
    "ServiceClient",
    "ServiceError",
    "StepOutcome",
    "TrainingResult",
    "attach",
    "make_sampler",
    "run_scenario",
    "submit",
]


def run_scenario(
    scenario: Optional[ScenarioConfig] = None,
    *,
    preset: Optional[str] = None,
    sampler: str = "mach",
    seed: Optional[int] = None,
    stop_at_target: bool = False,
    telemetry=None,
    obs=None,
    resume_from=None,
    **overrides,
) -> TrainingResult:
    """Run one sampler on one scenario, synchronously.

    Pass either a :class:`ScenarioConfig` or a ``preset`` name; keyword
    ``overrides`` apply on top of either (``num_steps=20``,
    ``fault_profile="moderate"``, ...).  ``resume_from`` continues a
    checkpointed run; ``telemetry``/``obs`` attach the usual recorders.
    """
    config = resolve_scenario(scenario, preset, overrides)
    from repro.experiments.runner import run_single

    return run_single(
        config,
        sampler,
        seed=seed,
        stop_at_target=stop_at_target,
        telemetry=telemetry,
        resume_from=resume_from,
        obs=obs,
    )


def submit(
    scenario: Optional[ScenarioConfig] = None,
    *,
    preset: Optional[str] = None,
    sampler: str = "mach",
    seed: Optional[int] = None,
    stop_at_target: bool = False,
    coordinator: Optional[Coordinator] = None,
    **overrides,
) -> "RunHandle":
    """Submit a scenario to a coordinator; returns a :class:`RunHandle`.

    Without an explicit ``coordinator`` the process-wide default (an
    in-memory :class:`Coordinator`, created on first use) runs it —
    the zero-setup path for notebooks and tests.  Pass your own
    coordinator for durable state dirs, checkpoints and recovery.
    """
    config = resolve_scenario(scenario, preset, overrides)
    backend = coordinator if coordinator is not None else _default_coordinator()
    run_id = backend.submit(
        config,
        sampler=sampler,
        seed=seed,
        stop_at_target=stop_at_target,
        preset=preset,
    )
    return RunHandle(run_id=run_id, _backend=backend)


def attach(url: str, timeout: float = 30.0) -> ServiceClient:
    """Connect to a served coordinator (``runner serve``) by base URL.

    Verifies the API version handshake up front so incompatibilities
    fail loudly at attach time, not mid-run.
    """
    client = ServiceClient(url, timeout=timeout)
    remote = client.api_version()
    if remote.split(".")[0] != API_VERSION.split(".")[0]:
        raise ServiceError(
            426,
            f"server speaks API {remote}, this client speaks {API_VERSION}",
        )
    return client


@dataclass
class RunHandle:
    """A submitted run, addressable wherever it executes.

    Wraps a ``run_id`` plus its backend — an in-process
    :class:`Coordinator` or a remote :class:`ServiceClient` — behind
    one lifecycle surface.  ``result()`` returns the full
    :class:`TrainingResult` in-process and raises for remote backends
    (flat model vectors never cross the wire; use :meth:`summary`,
    which carries the vector's SHA-256, on both).
    """

    run_id: str
    _backend: Union[Coordinator, ServiceClient]

    def status(self) -> RunStatus:
        return self._backend.status(self.run_id)

    def stream(
        self, follow: bool = False
    ) -> Iterator[RoundStatus]:
        return self._backend.stream(self.run_id, follow=follow)

    def pause(self) -> RunStatus:
        return self._backend.pause(self.run_id)

    def resume(self) -> RunStatus:
        return self._backend.resume_run(self.run_id)

    def stop(self) -> RunStatus:
        return self._backend.stop(self.run_id)

    def wait(self, timeout: float = 600.0) -> RunStatus:
        if isinstance(self._backend, Coordinator):
            self._backend.result(self.run_id, timeout=timeout)
            return self._backend.status(self.run_id)
        return self._backend.wait(self.run_id, timeout=timeout)

    def result(self, timeout: float = 600.0) -> TrainingResult:
        if not isinstance(self._backend, Coordinator):
            raise ServiceError(
                400,
                "full TrainingResult is only available in-process; "
                "use summary() against a remote coordinator",
            )
        return self._backend.result(self.run_id, timeout=timeout)

    def summary(self, timeout: float = 600.0) -> RunResultSummary:
        self.wait(timeout=timeout)
        return self._backend.summary(self.run_id)


# -- module internals --------------------------------------------------------

_DEFAULT_COORDINATOR: Optional[Coordinator] = None


def _default_coordinator() -> Coordinator:
    global _DEFAULT_COORDINATOR
    if _DEFAULT_COORDINATOR is None:
        _DEFAULT_COORDINATOR = Coordinator()
    return _DEFAULT_COORDINATOR
