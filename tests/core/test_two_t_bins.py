"""Behavioural tests for the 2tBins algorithm (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.two_t_bins import TwoTBins
from repro.group_testing.model import OnePlusModel, TwoPlusModel
from repro.group_testing.population import Population


def run(n, x, t, seed=0, model_cls=OnePlusModel):
    pop = Population.from_count(n, x, np.random.default_rng(seed))
    model = model_cls(pop, np.random.default_rng(seed + 1))
    result = TwoTBins().decide(model, t, np.random.default_rng(seed + 2))
    return result, pop


def test_uses_2t_bins_every_round():
    result, _ = run(128, 8, 8)
    for rec in result.history:
        assert rec.bins_requested == 16


def test_degenerate_threshold_one_uses_two_bins():
    result, _ = run(64, 0, 1)
    assert all(rec.bins_requested == 2 for rec in result.history)


def test_all_positive_resolves_in_exactly_t_queries():
    """x == n: the first t bins are all non-empty (Sec IV-C)."""
    result, _ = run(128, 128, 16)
    assert result.decision
    assert result.queries == 16
    assert result.rounds == 1


def test_zero_positives_cost_matches_paper_formula():
    """x == 0: cost ~ (n - t) / (n / 2t) queries (Sec IV-C)."""
    n, t = 128, 16
    result, _ = run(n, 0, t)
    assert not result.decision
    expected = (n - t) / (n / (2 * t))
    assert result.queries == pytest.approx(expected, abs=2)


def test_silent_bins_eliminate_members():
    result, _ = run(128, 2, 8, seed=5)
    for rec in result.history:
        if rec.silent_bins:
            assert rec.eliminated > 0


def test_unresolved_round_at_least_halves_candidates():
    """The Sec IV-A halving argument, observed directly."""
    result, _ = run(512, 4, 16, seed=3)
    prev = 512
    for rec in result.history[:-1]:  # all but the deciding round
        if rec.bins_queried == rec.bins_requested:
            assert rec.candidates_after <= prev // 2 + rec.bins_requested
        prev = rec.candidates_after


def test_two_plus_confirms_positives_near_t():
    """Around x = t-1 most bins hold exactly one positive: the 2+ model
    captures and excludes them (Sec IV-C2)."""
    n, t = 128, 16
    costs_1p, costs_2p, confirmed = [], [], []
    for seed in range(40):
        r1, _ = run(n, t - 1, t, seed=seed, model_cls=OnePlusModel)
        r2, _ = run(n, t - 1, t, seed=seed, model_cls=TwoPlusModel)
        costs_1p.append(r1.queries)
        costs_2p.append(r2.queries)
        confirmed.append(r2.confirmed_positives)
    assert np.mean(costs_2p) < np.mean(costs_1p)
    assert max(confirmed) > 0


def test_queries_counted_from_model_ledger():
    pop = Population.from_count(32, 5, np.random.default_rng(0))
    model = OnePlusModel(pop, np.random.default_rng(1))
    model.query([0])  # pre-existing traffic on the same model
    result = TwoTBins().decide(model, 4, np.random.default_rng(2))
    assert result.queries == model.queries_used - 1


def test_negative_threshold_rejected():
    pop = Population.from_count(8, 2, np.random.default_rng(0))
    model = OnePlusModel(pop, np.random.default_rng(1))
    with pytest.raises(ValueError):
        TwoTBins().decide(model, -1, np.random.default_rng(2))


def test_name():
    assert TwoTBins().name == "2tBins"


def test_history_indices_are_sequential():
    result, _ = run(256, 10, 8, seed=11)
    assert [rec.index for rec in result.history] == list(range(result.rounds))
