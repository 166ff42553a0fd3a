"""Tests for the numerical Problem-1 solver, the test oracle for the closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import (
    bound_minimizing_probabilities,
    paper_optimal_probabilities,
    sampling_objective,
)
from tests.core.problem_oracle import solve_problem1, verify_closed_form


class TestSolveProblem1:
    def test_converges_on_simple_instance(self):
        solution = solve_problem1(np.array([1.0, 4.0, 9.0]), capacity=1.5)
        assert solution.converged
        assert solution.probabilities.shape == (3,)
        assert np.all(solution.probabilities <= 1.0)
        assert solution.probabilities.sum() <= 1.5 + 1e-6

    def test_matches_closed_form_interior(self):
        """No clipping active: solution ∝ G (q ∝ sqrt(G²))."""
        g_sq = np.array([1.0, 4.0])
        solution = solve_problem1(g_sq, capacity=0.9)
        assert solution.probabilities[1] / solution.probabilities[0] == pytest.approx(
            2.0, rel=1e-3
        )

    def test_matches_closed_form_with_clipping(self):
        """One device pinned at q=1: water-filling splits the remainder."""
        g_sq = np.array([100.0, 1.0, 1.0])
        solution = solve_problem1(g_sq, capacity=2.0)
        closed = bound_minimizing_probabilities(g_sq, 2.0)
        assert solution.probabilities[0] == pytest.approx(1.0, abs=1e-3)
        assert sampling_objective(g_sq, solution.probabilities) == pytest.approx(
            sampling_objective(g_sq, np.clip(closed, 1e-6, 1.0)), rel=1e-3
        )

    def test_uses_full_budget(self):
        solution = solve_problem1(np.array([2.0, 3.0, 4.0]), capacity=1.2)
        assert solution.probabilities.sum() == pytest.approx(1.2, rel=1e-4)

    def test_kkt_residual_small_at_optimum(self):
        g_sq = np.array([1.0, 2.0, 5.0, 8.0])
        solution = solve_problem1(g_sq, capacity=1.5)
        assert solution.kkt_residual(g_sq, 1.5) < 1e-2

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_problem1(np.zeros(0), 1.0)
        with pytest.raises(ValueError):
            solve_problem1(np.array([-1.0]), 1.0)
        with pytest.raises(ValueError):
            solve_problem1(np.array([1.0]), 0.0)

    def test_beats_paper_closed_form(self):
        """The true optimum is at least as good as Eq. (13) on Σ G²/q."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            g_sq = rng.uniform(0.1, 20.0, size=6)
            capacity = rng.uniform(1.0, 4.0)
            solution = solve_problem1(g_sq, capacity)
            paper_q = np.clip(paper_optimal_probabilities(g_sq, capacity), 1e-4, 1.0)
            assert solution.objective <= sampling_objective(g_sq, paper_q) * 1.001


class TestVerifyClosedForm:
    def test_agreement_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g_sq = rng.uniform(0.05, 10.0, size=rng.integers(2, 8))
            capacity = rng.uniform(0.5, 5.0)
            assert verify_closed_form(g_sq, capacity, tolerance=5e-3)

    def test_degenerate_all_zero(self):
        assert verify_closed_form(np.zeros(4), 2.0)

    @given(
        st.lists(st.floats(0.1, 30.0), min_size=2, max_size=8),
        st.floats(0.5, 5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_closed_form_optimal(self, g_sq, capacity):
        assert verify_closed_form(np.array(g_sq), capacity, tolerance=1e-2)
