"""Numerical solver for Problem 1 (§III-A): the test oracle for the closed form.

Remark 2 solves Problem 1 in closed form only after dropping the range
constraint ``q ∈ [0, 1]``.  This module solves the *full* constrained
program numerically —

.. math::
    \\min_q \\; \\sum_m G^2_m / q_m \\quad \\text{s.t.} \\;
    \\sum_m q_m \\le K_n, \\; q_m \\in (0, 1]

— with scipy's SLSQP, and provides the KKT machinery used to verify the
water-filling closed form (:func:`repro.core.convergence.
bound_minimizing_probabilities`) to optimizer precision.
``tests/core/test_problem.py`` cross-checks all three solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from repro.core.convergence import bound_minimizing_probabilities, sampling_objective
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Problem1Solution:
    """Outcome of the numerical Problem-1 solve."""

    probabilities: np.ndarray
    objective: float
    converged: bool
    iterations: int

    def kkt_residual(self, g_sq: np.ndarray, capacity: float) -> float:
        """Max KKT stationarity violation of this solution.

        At the optimum, interior coordinates (0 < q < 1) share a common
        multiplier λ = G²_m / q²_m; coordinates clipped at 1 may have a
        smaller ratio.  Returns the spread of the interior ratios plus
        any budget violation.
        """
        q = self.probabilities
        interior = (q > 1e-6) & (q < 1 - 1e-6)
        residual = 0.0
        if interior.sum() >= 2:
            ratios = g_sq[interior] / q[interior] ** 2
            residual = float((ratios.max() - ratios.min()) / max(ratios.max(), 1e-12))
        budget_violation = max(0.0, float(q.sum()) - capacity)
        return residual + budget_violation


def solve_problem1(
    g_sq: np.ndarray,
    capacity: float,
    q_floor: float = 1e-4,
    x0: Optional[np.ndarray] = None,
    max_iterations: int = 500,
) -> Problem1Solution:
    """Solve the per-edge Problem 1 with SLSQP.

    Parameters
    ----------
    g_sq:
        Squared gradient-norm bounds ``G²_m`` of the edge's members.
    capacity:
        Channel capacity ``K_n`` (Eq. (3)).
    q_floor:
        Lower bound keeping the objective finite (q → 0 diverges).
    """
    g_sq = np.asarray(g_sq, dtype=float)
    if g_sq.ndim != 1 or g_sq.size == 0:
        raise ValueError(f"g_sq must be a non-empty vector, got shape {g_sq.shape}")
    if np.any(g_sq < 0):
        raise ValueError("squared gradient norms must be non-negative")
    check_positive("capacity", capacity)
    check_positive("q_floor", q_floor)
    n = g_sq.size
    budget = min(float(capacity), float(n))

    if x0 is None:
        x0 = np.full(n, budget / n)
    x0 = np.clip(x0, q_floor, 1.0)

    def objective(q: np.ndarray) -> float:
        return float(np.sum(g_sq / np.clip(q, q_floor, None)))

    def gradient(q: np.ndarray) -> np.ndarray:
        return -g_sq / np.clip(q, q_floor, None) ** 2

    result = minimize(
        objective,
        x0,
        jac=gradient,
        method="SLSQP",
        bounds=[(q_floor, 1.0)] * n,
        constraints=[{
            "type": "ineq",
            "fun": lambda q: budget - np.sum(q),
            "jac": lambda q: -np.ones(n),
        }],
        # ftol tighter than ~1e-10 makes SLSQP end on "positive
        # directional derivative" even at the optimum.
        options={"maxiter": max_iterations, "ftol": 1e-10},
    )
    return Problem1Solution(
        probabilities=np.clip(result.x, q_floor, 1.0),
        objective=float(result.fun),
        converged=bool(result.success),
        iterations=int(result.nit),
    )


def verify_closed_form(
    g_sq: np.ndarray, capacity: float, tolerance: float = 1e-3
) -> bool:
    """Check the water-filling closed form against the numerical solve.

    Returns True when the closed-form objective is within ``tolerance``
    (relative) of the SLSQP optimum.
    """
    g_sq = np.asarray(g_sq, dtype=float)
    positive = g_sq > 0
    if not positive.any():
        return True
    closed = bound_minimizing_probabilities(g_sq, capacity)
    numerical = solve_problem1(g_sq, capacity)
    # Compare on the strictly-positive-norm coordinates: zero-norm
    # devices contribute nothing to the objective and their probability
    # is arbitrary.
    closed_obj = sampling_objective(
        g_sq[positive], np.clip(closed[positive], 1e-9, 1.0)
    )
    gap = abs(closed_obj - numerical.objective)
    return gap <= tolerance * max(abs(numerical.objective), 1e-12)
