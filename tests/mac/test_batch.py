"""Bit-exactness of the MAC baselines' batch path.

``decide_batch`` must answer a sweep cell exactly as the per-run scalar
loop of :func:`dispatch_batch` does on the same ``QueryBatch.for_cell``
streams: the same decisions, slot counts and ``exact`` flag.  What the
batch path cannot replay it declines, and the scalar loop then answers
(or raises) instead.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.group_testing import QueryBatch, UnsupportedBatch, dispatch_batch
from repro.mac import CsmaBaseline, CsmaConfig, SequentialOrdering
from repro.sim import fastseed


def _batch(n, x, t, *, runs=40, run_lo=0, seed=2011):
    return QueryBatch.for_cell(
        seed=seed,
        label="MAC",
        x=x,
        n=n,
        threshold=t,
        run_lo=run_lo,
        run_hi=run_lo + runs,
        model=None,
    )


def _assert_parity(decider, batch):
    kernel, path = dispatch_batch(decider, batch, vectorize=True)
    assert path == "kernel"
    scalar, path = dispatch_batch(decider, batch, vectorize=False)
    assert path == "scalar"
    np.testing.assert_array_equal(kernel.decisions, scalar.decisions)
    np.testing.assert_array_equal(kernel.queries, scalar.queries)
    assert kernel.exact == scalar.exact
    return kernel


CSMA_CONFIGS = {
    "default": CsmaConfig(),
    "adaptive-quiet": CsmaConfig(adaptive_quiet=True),
    "quiet-20": CsmaConfig(quiet_slots=20),
    "window-4-64": CsmaConfig(initial_window=4, max_window=64),
    # integers(0, 1) draws nothing: the first slot is one big collision.
    "window-1-4": CsmaConfig(initial_window=1, max_window=4),
}

#: ``(n, t, xs)`` cells: fig01's and fig07's shapes plus threshold edges.
CSMA_CELLS = [
    (128, 16, (0, 1, 2, 8, 15, 16, 17, 40, 128)),
    (32, 8, (0, 1, 4, 7, 8, 9, 20, 32)),
    (32, 1, (0, 1, 2, 32)),
    (16, 20, (0, 5, 16)),
]


class TestCsmaParity:
    @pytest.mark.parametrize("name", sorted(CSMA_CONFIGS))
    @pytest.mark.parametrize("n,t,xs", CSMA_CELLS)
    def test_matches_scalar(self, name, n, t, xs):
        decider = CsmaBaseline(CSMA_CONFIGS[name])
        for x in xs:
            out = _assert_parity(decider, _batch(n, x, t))
            assert not out.exact

    def test_threshold_zero_is_free(self):
        out = _assert_parity(CsmaBaseline(), _batch(32, 5, 0))
        assert out.decisions.all() and not out.queries.any()

    def test_run_block_with_offset(self):
        _assert_parity(CsmaBaseline(), _batch(128, 40, 16, run_lo=37, runs=25))

    def test_more_runs_than_one_lockstep_block(self):
        _assert_parity(CsmaBaseline(), _batch(32, 12, 8, runs=300))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CsmaBaseline().decide_batch(_batch(32, 4, -1))


class TestCsmaDeclines:
    @pytest.mark.parametrize(
        "config",
        [CsmaConfig(loss_prob=0.1), CsmaConfig(initial_window=5, max_window=100)],
        ids=["loss", "window-5-100"],
    )
    def test_declined_cells_fall_back_to_scalar(self, config):
        decider = CsmaBaseline(config)
        batch = _batch(32, 12, 8)
        with pytest.raises(UnsupportedBatch):
            decider.decide_batch(batch)
        out, path = dispatch_batch(decider, batch, vectorize=True)
        assert path == "fallback"
        scalar, _ = dispatch_batch(decider, batch, vectorize=False)
        np.testing.assert_array_equal(out.queries, scalar.queries)
        np.testing.assert_array_equal(out.decisions, scalar.decisions)

    @pytest.mark.parametrize(
        "config",
        [
            CsmaConfig(max_slots=5),
            # Unit windows: every slot collides until the cap.
            CsmaConfig(initial_window=1, max_window=1, max_slots=50),
        ],
        ids=["tiny-cap", "unit-windows"],
    )
    def test_max_slots_raises_the_scalar_error(self, config):
        decider = CsmaBaseline(config)
        batch = _batch(32, 10, 8)
        with pytest.raises(UnsupportedBatch):
            decider.decide_batch(batch)
        with pytest.raises(RuntimeError, match="safety cap") as info:
            dispatch_batch(decider, batch, vectorize=True)
        assert info.value.failed_run == batch.run_lo

    def test_huge_max_slots_declines(self):
        decider = CsmaBaseline(CsmaConfig(max_slots=1 << 40))
        batch = _batch(32, 12, 8)
        with pytest.raises(UnsupportedBatch):
            decider.decide_batch(batch)
        out, path = dispatch_batch(decider, batch, vectorize=True)
        assert path == "fallback"
        np.testing.assert_array_equal(
            out.queries, dispatch_batch(CsmaBaseline(), batch, vectorize=True)[0].queries
        )

    def test_failed_pull_probe_declines(self, monkeypatch):
        # A numpy whose bounded draws read the stream differently: the
        # probe must notice, and CSMA must decline rather than diverge.
        real = fastseed.pull_block
        monkeypatch.setattr(fastseed, "_verified", None)
        monkeypatch.setattr(
            fastseed, "pull_block", lambda raw, count, skip=0: real(raw, count, skip + 1)
        )
        assert not fastseed.available()
        batch = _batch(32, 12, 8)
        with pytest.raises(UnsupportedBatch):
            CsmaBaseline().decide_batch(batch)
        _, path = dispatch_batch(CsmaBaseline(), batch, vectorize=True)
        assert path == "fallback"


class TestSequentialParity:
    @pytest.mark.parametrize("shuffle", [True, False], ids=["shuffled", "id-order"])
    @pytest.mark.parametrize(
        "n,t,xs",
        [
            (128, 16, (0, 1, 15, 16, 17, 64, 72, 73, 100, 127, 128)),
            (32, 8, (0, 7, 8, 9, 32)),
            (16, 0, (0, 5, 16)),
            (16, 17, (0, 5, 16)),
            (1024, 8, (0, 3, 8, 300, 1024)),
        ],
    )
    def test_matches_scalar(self, shuffle, n, t, xs):
        runs = 10 if n > 128 else 40
        for x in xs:
            out = _assert_parity(SequentialOrdering(shuffle=shuffle), _batch(n, x, t, runs=runs))
            assert out.exact

    def test_run_block_with_offset(self):
        _assert_parity(SequentialOrdering(), _batch(128, 20, 16, run_lo=51, runs=25))

    def test_more_runs_than_one_block(self):
        _assert_parity(SequentialOrdering(), _batch(32, 12, 8, runs=300))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SequentialOrdering().decide_batch(_batch(32, 4, -1))

    @pytest.mark.parametrize("cause", ["fastseed", "no-seed-contract"])
    def test_unreplayable_streams_decline(self, cause, monkeypatch):
        batch = _batch(32, 12, 8)
        if cause == "fastseed":
            monkeypatch.setattr(fastseed, "_verified", False)
        else:
            batch = replace(batch, seed_info=None)
        for decider in (SequentialOrdering(), CsmaBaseline()):
            with pytest.raises(UnsupportedBatch):
                decider.decide_batch(batch)
            out, path = dispatch_batch(decider, batch, vectorize=True)
            assert path == "fallback"
            scalar, _ = dispatch_batch(decider, batch, vectorize=False)
            np.testing.assert_array_equal(out.queries, scalar.queries)


class TestPullStream:
    def test_probe_passes_on_this_numpy(self):
        assert fastseed.available()

    @pytest.mark.parametrize("skip", [0, 1, 7, 300])
    def test_blocks_match_real_generators(self, skip):
        seeds = [0, 5, 2011, (1 << 63) - 1]
        pulls = fastseed.pull_block(fastseed.pcg64_raw(seeds), 6, skip=skip)
        for i, seed in enumerate(seeds):
            raw = np.random.default_rng(seed).bit_generator.random_raw(skip + 6)[skip:]
            halves = np.empty(12, dtype=np.uint64)
            halves[0::2] = raw & np.uint64(0xFFFFFFFF)
            halves[1::2] = raw >> np.uint64(32)
            np.testing.assert_array_equal(pulls[:, i], halves)
