"""Unit and property tests for bin assignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.group_testing.binning import partition_random, sample_bin


def _flatten(bins):
    out = []
    for b in bins:
        out.extend(b)
    return out


class TestPartitionRandom:
    def test_partitions_everything_exactly_once(self, rng):
        cands = list(range(37))
        bins = partition_random(cands, 5, rng)
        assert sorted(_flatten(bins)) == cands

    def test_balanced_sizes(self, rng):
        bins = partition_random(list(range(37)), 5, rng)
        sizes = sorted(len(b) for b in bins)
        assert max(sizes) - min(sizes) <= 1

    def test_no_empty_bins_materialised(self, rng):
        bins = partition_random(list(range(3)), 10, rng)
        assert len(bins) == 3
        assert all(len(b) == 1 for b in bins)

    def test_empty_candidates(self, rng):
        assert partition_random([], 4, rng) == []

    def test_single_bin(self, rng):
        bins = partition_random([5, 9, 1], 1, rng)
        assert len(bins) == 1
        assert sorted(bins[0]) == [1, 5, 9]

    def test_rejects_zero_bins(self, rng):
        with pytest.raises(ValueError):
            partition_random([1], 0, rng)

    def test_randomised_across_calls(self):
        rng = np.random.default_rng(0)
        a = partition_random(list(range(64)), 8, rng)
        b = partition_random(list(range(64)), 8, rng)
        assert a != b  # astronomically unlikely to match

    def test_deterministic_for_fixed_seed(self):
        a = partition_random(list(range(64)), 8, np.random.default_rng(3))
        b = partition_random(list(range(64)), 8, np.random.default_rng(3))
        assert a == b

    def test_assignment_roughly_uniform(self):
        """Each node lands in each bin with ~equal frequency."""
        rng = np.random.default_rng(42)
        counts = np.zeros((8, 4))
        for _ in range(2000):
            bins = partition_random(list(range(8)), 4, rng)
            for b_idx, members in enumerate(bins):
                for m in members:
                    counts[m, b_idx] += 1
        freq = counts / 2000
        assert np.all(np.abs(freq - 0.25) < 0.05)

    @settings(max_examples=50)
    @given(
        n=st.integers(min_value=0, max_value=200),
        bins=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_partition_invariants(self, n, bins, seed):
        cands = list(range(1000, 1000 + n))
        out = partition_random(cands, bins, np.random.default_rng(seed))
        assert sorted(_flatten(out)) == cands
        assert len(out) == min(bins, n)
        if out:
            sizes = [len(b) for b in out]
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 1


class TestSampleBin:
    def test_inclusion_zero_gives_empty(self, rng):
        assert sample_bin(list(range(50)), 0.0, rng) == []

    def test_inclusion_one_gives_all(self, rng):
        assert sorted(sample_bin(list(range(50)), 1.0, rng)) == list(range(50))

    def test_empty_candidates(self, rng):
        assert sample_bin([], 0.5, rng) == []

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            sample_bin([1], 1.5, rng)
        with pytest.raises(ValueError):
            sample_bin([1], -0.1, rng)

    def test_members_are_subset(self, rng):
        cands = list(range(100, 200))
        members = sample_bin(cands, 0.3, rng)
        assert set(members) <= set(cands)
        assert len(set(members)) == len(members)

    def test_expected_size(self):
        rng = np.random.default_rng(1)
        sizes = [len(sample_bin(list(range(100)), 0.2, rng)) for _ in range(500)]
        assert np.mean(sizes) == pytest.approx(20.0, abs=1.5)
