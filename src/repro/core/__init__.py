"""MACH: the paper's primary contribution.

- :mod:`repro.core.convergence` — Theorem 1 convergence bound, the
  Problem-1 optimization and the Remark-2 closed-form optimum (Eq. (13));
- :mod:`repro.core.experience` — Algorithm 2, online UCB estimation of
  per-device maximum gradient norms (Eqs. (14)–(15));
- :mod:`repro.core.edge_sampling` — Algorithm 3, the per-edge sampling
  strategy (Eqs. (16)–(18));
- :mod:`repro.core.mach` — the complete MACH sampler (Algorithm 1's
  sampling side), pluggable into the HFL trainer.
"""

from repro.core.convergence import (
    bound_minimizing_probabilities,
    convergence_bound,
    paper_optimal_probabilities,
    sampling_objective,
    virtual_global_model,
)
from repro.core.edge_sampling import (
    EdgeSamplingConfig,
    edge_strategy,
    smooth,
    virtual_probabilities,
)
from repro.core.experience import ExperienceTracker
from repro.core.mach import MACHConfig, MACHSampler

__all__ = [
    "convergence_bound",
    "sampling_objective",
    "paper_optimal_probabilities",
    "bound_minimizing_probabilities",
    "virtual_global_model",
    "EdgeSamplingConfig",
    "virtual_probabilities",
    "smooth",
    "edge_strategy",
    "ExperienceTracker",
    "MACHConfig",
    "MACHSampler",
]
