"""The 2+ capture draws replayed from PCG64 outputs (``DrawReplay``).

The lockstep kernel never calls a model generator: it reads each run's
``random()`` and ``integers(c)`` draws off the stream's outputs.  These
tests hold the replay to real generators draw for draw, and its cursor
(outputs consumed, high half buffered) to the state the generators'
own draws leave.
"""

from __future__ import annotations

import sys
import threading
from typing import List

import numpy as np
import pytest

from repro.sim import fastseed

SEEDS = [0, 5, 2011, 123456789, (1 << 63) - 1]

BOUNDS = (2, 3, 7, 100, 2**31 + 1, 2**32 - 1)


def _generators() -> List[np.random.Generator]:
    return [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
        for s in SEEDS
    ]


def _replay_and_compare(script):
    """Run ``script`` (None = random(), int c = integers(c)) on real
    generators and on a replay of the same streams; compare every draw."""
    real = _generators()
    replay = fastseed.DrawReplay(fastseed.pcg64_raw(SEEDS))
    rows = np.arange(len(SEEDS), dtype=np.int64)
    for bound in script:
        if bound is None:
            got = replay.random(rows)
            want = np.array([gen.random() for gen in real])
        else:
            got = replay.integers(rows, np.full(rows.size, bound))
            want = np.array([gen.integers(bound) for gen in real])
        np.testing.assert_array_equal(got, want, err_msg=f"draw {bound!r}")
    return replay, real


def _assert_cursors_match(replay, real):
    """Each replay row stands where its generator's draws left it: the
    LCG advanced by the outputs the row consumed, and the same high
    half waiting."""
    for i, (seed, gen) in enumerate(zip(SEEDS, real)):
        advanced = np.random.PCG64(np.random.SeedSequence(seed))
        advanced.advance(int(replay.used[i]))
        state = gen.bit_generator.state
        assert state["state"] == advanced.state["state"], f"row {i}"
        assert state["has_uint32"] == int(replay.waiting[i]), f"row {i}"
        if replay.waiting[i]:
            assert state["uinteger"] == int(replay.uinteger[i]), f"row {i}"


class TestDrawReplay:
    def test_probe_passes_on_this_numpy(self):
        assert fastseed.available()

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_interleaved_draws_and_states_match(self, bound):
        # Odd pull counts between random() calls keep a high half waiting
        # across them; 2**31 + 1 rejects about half its pulls.
        script = [bound, None, None, None, bound, bound, None, bound] * 6
        replay, real = _replay_and_compare(script)
        _assert_cursors_match(replay, real)

    def test_waiting_half_survives_random_calls(self):
        replay, real = _replay_and_compare([3, None, None, None, None])
        assert replay.waiting.all()
        _assert_cursors_match(replay, real)
        for scalar in real:
            assert scalar.bit_generator.state["has_uint32"] == 1

    def test_growth_past_the_first_block(self):
        # Rows consume different amounts (rejections), so they outgrow
        # their first block at different draws and grow apart.
        script = [None, 2**31 + 1] * 40 + [7, None] * 30
        replay, real = _replay_and_compare(script)
        assert int(replay.used.min()) > 8 * fastseed._REPLAY_BLOCK
        _assert_cursors_match(replay, real)

    def test_rows_draw_independently(self):
        # Each call draws on the listed rows only, in any subset.
        real = _generators()
        replay = fastseed.DrawReplay(fastseed.pcg64_raw(SEEDS))
        rng = np.random.default_rng(3)
        for _ in range(60):
            rows = np.flatnonzero(rng.random(len(SEEDS)) < 0.6)
            if not rows.size:
                continue
            bounds = rng.integers(2, 1000, size=rows.size)
            if rng.random() < 0.5:
                got = replay.random(rows)
                want = [real[r].random() for r in rows]
            else:
                got = replay.integers(rows, bounds)
                want = [real[r].integers(b) for r, b in zip(rows, bounds)]
            np.testing.assert_array_equal(got, want)

    def test_failed_probe_reports_unavailable(self, monkeypatch):
        real = fastseed.DrawReplay.integers
        monkeypatch.setattr(fastseed, "_verified", None)
        monkeypatch.setattr(
            fastseed.DrawReplay, "integers",
            lambda self, rows, bounds: real(self, rows, bounds + 1),
        )
        assert not fastseed.available()


class TestChoiceProbe:
    def test_failed_choice_emulation_reports_unavailable(self, monkeypatch):
        # The one probe also replays bulk choice: a numpy whose choice()
        # ordering differs must turn off every fastseed replay.
        real = fastseed.choice_bulk

        def reversed_choice(raw, n, x):
            got = real(raw, n, x)
            return None if got is None else got[:, ::-1]

        monkeypatch.setattr(fastseed, "_verified", None)
        monkeypatch.setattr(fastseed, "choice_bulk", reversed_choice)
        assert not fastseed.available()


class TestPullBlockSkips:
    def test_per_row_skips_match_real_generators(self):
        skips = np.array([0, 3, 17, 1, 64], dtype=np.int64)
        pulls = fastseed.pull_block(fastseed.pcg64_raw(SEEDS), 4, skip=skips)
        for i, seed in enumerate(SEEDS):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            raw = gen.bit_generator.random_raw(int(skips[i]) + 4)[skips[i]:]
            np.testing.assert_array_equal(pulls[0::2, i], raw & np.uint64(0xFFFFFFFF))
            np.testing.assert_array_equal(pulls[1::2, i], raw >> np.uint64(32))


class TestJumpTablesUnderThreads:
    def test_concurrent_growth_keeps_every_entry(self, monkeypatch):
        # The query service replays from several executor threads, and
        # each may grow the shared jump tables; an append computed from
        # a stale last entry would corrupt every later output.
        monkeypatch.setattr(fastseed, "_JUMP_A", [1])
        monkeypatch.setattr(fastseed, "_JUMP_B", [0])
        monkeypatch.setattr(fastseed, "_jump_limb_cache", None)
        errors: List[BaseException] = []

        def grow(offset: int) -> None:
            try:
                for count in range(offset, 4000, 97):
                    fastseed._jump_limbs(count)
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        mult, mask = fastseed._PCG_MULT, (1 << 128) - 1
        a, b = 1, 0
        for k, (got_a, got_b) in enumerate(zip(fastseed._JUMP_A, fastseed._JUMP_B)):
            assert (got_a, got_b) == (a, b), f"entry {k}"
            a, b = (a * mult) & mask, (b * mult + 1) & mask
        limbs_a, _ = fastseed._jump_limbs(0)
        assert limbs_a.shape[0] == len(fastseed._JUMP_A) > 4000


class TestSpawnKeyStates:
    """The fused seeding pass rebuilds ``Generator.spawn`` grandchildren."""

    def test_states_match_real_seed_sequences(self):
        rng = np.random.default_rng(21)
        seeds = (
            [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
            + [int(s) for s in rng.integers(0, 2**32, 40)]
            + [int(s) for s in rng.integers(2**32, 2**63, 40, dtype=np.int64)]
        )
        keys = np.stack(
            [rng.integers(0, 2**32, len(seeds)), rng.integers(0, 3, len(seeds))],
            axis=1,
        ).astype(np.uint32)
        keys[:6, 0] = [0, 1, 2**32 - 1, 5, 0, 9]
        want = []
        for seed, (r, j) in zip(seeds, keys.tolist()):
            seq = np.random.SeedSequence(seed, spawn_key=(r, j))
            state = np.random.PCG64(seq).state["state"]
            want.append((state["state"], state["inc"]))
        assert fastseed.pcg64_states(seeds, keys) == want
        raw = fastseed.pcg64_raw(seeds, keys)
        assert fastseed.pairs_from_raw(raw) == want

    def test_matches_numpy_spawn_tree(self):
        seed, runs = 2011, 5
        keys = np.array([(r, j) for r in range(runs) for j in range(3)])
        got = fastseed.pcg64_states([seed] * keys.shape[0], keys)
        want = [
            (st["state"], st["inc"])
            for child in np.random.default_rng(seed).spawn(runs)
            for grandchild in child.spawn(3)
            for st in [grandchild.bit_generator.state["state"]]
        ]
        assert got == want

    def test_probe_covers_spawn_keys(self, monkeypatch):
        # A numpy that mixed spawn keys differently must turn off every
        # fused rebuild, the served path's included.
        real = fastseed._generate_state8
        monkeypatch.setattr(fastseed, "_verified", None)
        monkeypatch.setattr(
            fastseed, "_generate_state8",
            lambda seeds, keys=None: real(seeds, None if keys is None else keys[:, :1]),
        )
        assert not fastseed.available()
