"""Validation of the exact sequential-ordering cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.sequential_model import (
    anchor_all_negative,
    anchor_order_statistic,
    expected_slots_sequential,
)
from repro.experiments.common import SweepEngine
from repro.group_testing.population import Population
from repro.mac.tdma import SequentialOrdering
from repro.workloads.scenarios import x_sweep


def simulated_mean(n, x, t, runs=400):
    costs = np.empty(runs)
    for s in range(runs):
        pop = Population.from_count(n, x, np.random.default_rng(s))
        costs[s] = SequentialOrdering().decide(
            pop, t, np.random.default_rng(s + 1)
        ).queries
    return float(costs.mean())


class TestAnchors:
    def test_all_negative_is_exact(self):
        assert expected_slots_sequential(64, 0, 8) == pytest.approx(
            anchor_all_negative(64, 8)
        )

    def test_all_positive_is_t(self):
        assert expected_slots_sequential(64, 64, 8) == pytest.approx(8.0)

    def test_order_statistic_dominates_for_dense_x(self):
        n, x, t = 128, 100, 8
        exact = expected_slots_sequential(n, x, t)
        assert exact == pytest.approx(anchor_order_statistic(n, x, t), rel=0.02)

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            anchor_all_negative(8, 0)
        with pytest.raises(ValueError):
            anchor_all_negative(8, 9)
        with pytest.raises(ValueError):
            anchor_order_statistic(8, 2, 4)


class TestExactness:
    @pytest.mark.parametrize(
        "n,x,t",
        [
            (32, 0, 8),
            (32, 4, 8),
            (32, 8, 8),
            (32, 20, 8),
            (32, 32, 8),
            (64, 10, 24),
            (64, 50, 24),
        ],
    )
    def test_matches_simulation(self, n, x, t):
        exact = expected_slots_sequential(n, x, t)
        sim = simulated_mean(n, x, t)
        # 400-run Monte Carlo noise only; the model itself is exact.
        assert exact == pytest.approx(sim, rel=0.05)

    def test_trivial_cases(self):
        assert expected_slots_sequential(16, 4, 0) == 0.0
        assert expected_slots_sequential(16, 4, 17) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_slots_sequential(-1, 0, 1)
        with pytest.raises(ValueError):
            expected_slots_sequential(4, 5, 1)
        with pytest.raises(ValueError):
            expected_slots_sequential(4, 1, -1)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=128),
        data=st.data(),
    )
    def test_bounded_by_n(self, n, data):
        x = data.draw(st.integers(min_value=0, max_value=n))
        t = data.draw(st.integers(min_value=1, max_value=n))
        cost = expected_slots_sequential(n, x, t)
        assert 0.0 <= cost <= n

    def test_monotone_decreasing_in_x_for_dense(self):
        n, t = 64, 8
        costs = [expected_slots_sequential(n, x, t) for x in (8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


class TestSweepOracle:
    """The engine's Sequential curve against the exact expectation.

    Bit-identity between the batch path and the scalar oracle cannot
    catch a modelling bug the two share; the closed form can.
    """

    def test_fig01_curve_within_four_standard_errors(self):
        n, t, runs = 128, 16, 400
        xs = x_sweep(n)
        series = SweepEngine(n, t, runs=runs, seed=2011).baseline_curve(
            "Sequential", xs, SequentialOrdering
        )
        for x, mean, stderr in zip(xs, series.ys, series.stderr):
            exact = expected_slots_sequential(n, x, t)
            # x = 0 and x = n are deterministic (stderr 0): exact match.
            assert abs(mean - exact) <= 4 * stderr + 1e-9, (x, mean, exact, stderr)
