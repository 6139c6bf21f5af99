"""Batch paths must match their serial counterparts exactly.

``sample_bins`` and ``QueryModel.query_batch`` are each documented as
bit-identical to the one-at-a-time code they stand for.  These tests pin
that equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.group_testing.binning import sample_bin, sample_bins
from repro.group_testing.model import (
    KPlusModel,
    OnePlusModel,
    TwoPlusModel,
)
from repro.group_testing.population import Population

MODELS = [OnePlusModel, TwoPlusModel, lambda pop, rng: KPlusModel(pop, rng, k=3)]
MODEL_IDS = ["1+", "2+", "3+"]


def _pop(n=64, x=20, seed=0):
    return Population.from_count(n, x, np.random.default_rng(seed))


class TestSampleBins:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_matches_repeated_sample_bin(self, p):
        ids = list(range(40))
        batched = sample_bins(ids, p, 7, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        looped = [sample_bin(ids, p, rng) for _ in range(7)]
        assert batched == looped

    def test_rng_state_advances_identically(self):
        """Downstream draws must not depend on which path ran."""
        ids = list(range(16))
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        sample_bins(ids, 0.3, 5, rng_a)
        for _ in range(5):
            sample_bin(ids, 0.3, rng_b)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("ids,p", [([], 0.5), (list(range(8)), 0.0)])
    def test_degenerate_cases_consume_no_rng(self, ids, p):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        bins = sample_bins(ids, p, 4, rng)
        assert bins == [[], [], [], []]
        assert rng.bit_generator.state == before

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            sample_bins([1], 1.5, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_bins([1], 0.5, -1, np.random.default_rng(0))


class TestQueryBatch:
    @pytest.mark.parametrize("make_model", MODELS, ids=MODEL_IDS)
    def test_matches_serial_queries(self, make_model):
        pop = _pop()
        rng = np.random.default_rng(21)
        bins = [rng.choice(64, size=s, replace=False).tolist() for s in (0, 1, 3, 10, 30)]

        serial_model = make_model(pop, np.random.default_rng(33))
        serial = [serial_model.query(b) for b in bins]
        batch_model = make_model(pop, np.random.default_rng(33))
        batched = batch_model.query_batch(bins)

        assert batched == serial
        assert batch_model.queries_used == serial_model.queries_used

    def test_budget_exhaustion_matches_serial(self):
        pop = _pop()
        bins = [[i] for i in range(10)]
        serial_model = OnePlusModel(pop, np.random.default_rng(1), max_queries=3)
        serial_exc = None
        try:
            for b in bins:
                serial_model.query(b)
        except Exception as exc:  # noqa: BLE001 - capture for comparison
            serial_exc = type(exc)
        batch_model = OnePlusModel(pop, np.random.default_rng(1), max_queries=3)
        with pytest.raises(serial_exc):
            batch_model.query_batch(bins)
        assert batch_model.queries_used == serial_model.queries_used
