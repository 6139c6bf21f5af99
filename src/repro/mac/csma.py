"""Slotted CSMA baseline with binary exponential backoff (Sec IV-C).

Model: after the initiator's poll, every *positive* node contends to send
one reply.  Time is slotted; a backlogged node holds a backoff counter
drawn uniformly from its current contention window, decrements it on idle
slots only (carrier sensing freezes it during busy slots), and transmits
when it reaches zero.  A slot with exactly one transmitter is a success;
a slot with two or more is a collision, after which each collider doubles
its window (up to a cap) and redraws.

The initiator terminates with **true** after ``t`` successful replies.
It can never *certify* the negative answer -- silence from a node is
indistinguishable from backoff -- so it declares **false** after a quiet
period of consecutive idle slots.  Because binary exponential backoff can
open gaps longer than any fixed quiet period, that declaration can be
wrong: the paper's observation that "it is impossible to tell whether
x > t or x < t holds with certainty using CSMA" is a measurable property
of this model (``exact=False`` on every result).

Cost is the number of elapsed slots, plotted on the same axis as tcast's
query counts (one reply slot and one RCD query are frame exchanges of
comparable duration).

:meth:`CsmaBaseline.decide` is the slot-by-slot oracle;
:meth:`CsmaBaseline.decide_batch` answers a whole sweep cell in lockstep
with the same draws (DESIGN.md section 14.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.result import ThresholdResult
from repro.group_testing.population import Population
from repro.group_testing.vectorized import (
    BatchDecision,
    QueryBatch,
    UnsupportedBatch,
    fast_states,
)
from repro.sim import fastseed

#: Runs advanced together per lockstep block.  A block's arrays grow with
#: rows x x (node state) and rows x pulls, so blocks bound a cell's
#: memory; runs are independent, so the block size never changes a result.
_BLOCK_ROWS = 256

#: Backoff of a node that has replied: it never transmits again, and no
#: sum of idle jumps (each below ``max_window``, at most ``max_slots`` of
#: them) brings it near zero.
_DONE = 1 << 62

#: The lockstep path keeps slot clocks below this (int64 headroom).
_SLOT_LIMIT = 1 << 40

#: Spare 64-bit outputs in a block's first pull buffer, beyond the ``x``
#: initial draws; collisions past it grow the buffer.
_PULL_MARGIN = 48


@dataclass(frozen=True)
class CsmaConfig:
    """Tunables of the slotted CSMA model.

    Attributes:
        initial_window: Contention-window size for the first attempt
            (802.15.4's ``macMinBE = 3`` gives 8 slots).
        max_window: Window cap under exponential backoff
            (``macMaxBE = 8`` gives 256).
        quiet_slots: Consecutive idle slots after which the initiator
            declares the threshold unreachable.  Must be at least
            ``initial_window`` to keep a lone uncollided replier from
            being missed; longer values trade latency for accuracy.
        adaptive_quiet: When ``True``, the quiet period grows with the
            contention the initiator has *observed*: after ``c`` collision
            slots it waits ``min(initial_window * 2**c, max_window)`` idle
            slots, which is an upper bound on any backlogged node's
            remaining backoff -- making the negative verdict sound (the
            only residual error source is ``loss_prob``) at the price of a
            longer drain tail.  ``False`` reproduces the fixed-window
            behaviour whose occasional premature verdicts illustrate the
            paper's "impossible to tell with certainty using CSMA" remark.
        loss_prob: Probability an otherwise-successful reply is lost
            (hidden-terminal / fading proxy); the sender learns nothing
            and the initiator hears a busy-but-undecodable slot.
        max_slots: Hard safety cap on the simulation length.
    """

    initial_window: int = 8
    max_window: int = 256
    quiet_slots: int = 8
    adaptive_quiet: bool = False
    loss_prob: float = 0.0
    max_slots: int = 1_000_000

    def __post_init__(self) -> None:
        if self.initial_window < 1:
            raise ValueError(
                f"initial_window must be >= 1, got {self.initial_window}"
            )
        if self.max_window < self.initial_window:
            raise ValueError(
                f"max_window ({self.max_window}) must be >= initial_window "
                f"({self.initial_window})"
            )
        if self.quiet_slots < 1:
            raise ValueError(f"quiet_slots must be >= 1, got {self.quiet_slots}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0,1), got {self.loss_prob}")
        if self.max_slots < 1:
            raise ValueError(f"max_slots must be >= 1, got {self.max_slots}")


class CsmaBaseline:
    """Contention-based reply collection (the paper's *CSMA* curve).

    Args:
        config: Model tunables; defaults follow 802.15.4 conventions.
    """

    name = "CSMA"

    def __init__(self, config: CsmaConfig | None = None) -> None:
        self._config = config or CsmaConfig()

    @property
    def config(self) -> CsmaConfig:
        """The active configuration."""
        return self._config

    def decide(
        self,
        population: Population,
        threshold: int,
        rng: np.random.Generator,
    ) -> ThresholdResult:
        """Simulate one CSMA feedback-collection session.

        Args:
            population: Ground truth; only its positive count matters
                (negatives never contend).
            threshold: The threshold ``t``.
            rng: Randomness for backoff draws and loss events.

        Returns:
            A :class:`ThresholdResult` with ``queries`` = elapsed slots and
            ``exact=False`` (the negative verdict is a timeout heuristic).
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        cfg = self._config
        if threshold == 0:
            return ThresholdResult(
                decision=True,
                queries=0,
                rounds=0,
                threshold=threshold,
                exact=False,
                algorithm=self.name,
            )

        x = population.x
        windows = np.full(x, cfg.initial_window, dtype=np.int64)
        backoff = (
            rng.integers(0, cfg.initial_window, size=x)
            if x
            else np.empty(0, dtype=np.int64)
        )
        pending = np.ones(x, dtype=bool)

        successes = 0
        idle_run = 0
        slot = 0
        collision_slots = 0

        while slot < cfg.max_slots:
            slot += 1
            if cfg.adaptive_quiet:
                quiet_needed = min(
                    cfg.initial_window << min(collision_slots, 30),
                    cfg.max_window,
                )
                quiet_needed = max(quiet_needed, cfg.quiet_slots)
            else:
                quiet_needed = cfg.quiet_slots
            transmitters = np.flatnonzero(pending & (backoff == 0))
            if transmitters.size == 0:
                idle_run += 1
                backoff[pending] -= 1
                # Counters never go negative: only positive counters remain.
                if idle_run >= quiet_needed:
                    return self._finish(
                        decision=False, slots=slot, threshold=threshold
                    )
                continue
            idle_run = 0
            if transmitters.size == 1:
                idx = transmitters[0]
                if cfg.loss_prob and rng.random() < cfg.loss_prob:
                    # The reply was corrupted in flight: the channel was
                    # busy, the sender believes it transmitted, and nothing
                    # was decoded.  The sender is done (no link-layer ack
                    # in this baseline), so the reply is simply lost.
                    pending[idx] = False
                else:
                    pending[idx] = False
                    successes += 1
                    if successes >= threshold:
                        return self._finish(
                            decision=True, slots=slot, threshold=threshold
                        )
            else:
                # Collision: every collider doubles its window and redraws.
                collision_slots += 1
                for idx in transmitters:
                    windows[idx] = min(windows[idx] * 2, cfg.max_window)
                    backoff[idx] = rng.integers(0, windows[idx])
        raise RuntimeError(
            f"CSMA safety cap of {cfg.max_slots} slots exhausted "
            f"(x={x}, t={threshold})"
        )

    def decide_batch(self, batch: QueryBatch) -> BatchDecision:
        """Every run of a sweep cell at once, bit-identical to :meth:`decide`.

        Only ``x`` matters, so no population is drawn.  The runs advance
        in lockstep from busy slot to busy slot: idle slots draw nothing,
        so each run jumps by its smallest pending backoff, and a jump at
        least as long as the quiet period ends it.  Backoff draws are
        replayed from each run's ``"mac"`` stream
        (:func:`repro.sim.fastseed.pull_block`): with a power-of-two
        window ``w``, ``integers(0, w)`` consumes exactly one 32-bit pull
        and returns ``(pull * w) >> 32``, so no generator is called.

        Raises:
            UnsupportedBatch: For lossy replies (each lone transmission
                draws a full 64-bit ``random()``), windows that are not
                powers of two up to ``2**32``, a batch without the
                registry seed contract or a numpy whose pull stream
                fails :func:`~repro.sim.fastseed.available`, and
                any run that would pass ``max_slots`` -- the scalar loop
                then raises its own ``RuntimeError``.
            ValueError: If the threshold is negative (as :meth:`decide`).
        """
        cfg = self._config
        threshold, x = batch.threshold, batch.x
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        decisions = np.zeros(batch.runs, dtype=bool)
        queries = np.zeros(batch.runs, dtype=np.int64)
        if threshold == 0:
            decisions[:] = True
            return BatchDecision(decisions=decisions, queries=queries, exact=False)
        if cfg.loss_prob:
            raise UnsupportedBatch("lossy replies draw random() per lone transmission")
        if not (
            _power_of_two(cfg.initial_window)
            and _power_of_two(cfg.max_window)
            and cfg.max_window <= 1 << 32
        ):
            raise UnsupportedBatch(
                f"windows ({cfg.initial_window}, {cfg.max_window}) are not "
                "powers of two up to 2**32"
            )
        if cfg.max_slots >= _SLOT_LIMIT:
            raise UnsupportedBatch(f"max_slots {cfg.max_slots} >= 2**40")
        if cfg.max_window == 1 and x >= 2:
            raise UnsupportedBatch("every slot collides until max_slots")
        if x == 0:
            # Nobody contends: every run is one quiet period.
            quiet = int(_quiet_slots(cfg, np.zeros(1, dtype=np.int64))[0])
            if quiet > cfg.max_slots:
                raise UnsupportedBatch("the quiet period passes max_slots")
            queries[:] = quiet
            return BatchDecision(decisions=decisions, queries=queries, exact=False)
        states = fast_states(batch, ("mac",), raw=("mac",))
        if states is None:
            raise UnsupportedBatch("the mac streams cannot be replayed in bulk")
        for lo in range(0, batch.runs, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, batch.runs)
            _run_block(
                cfg, x, threshold, tuple(a[lo:hi] for a in states["mac"]),
                decisions[lo:hi], queries[lo:hi],
            )
        return BatchDecision(decisions=decisions, queries=queries, exact=False)

    @staticmethod
    def _finish(
        *, decision: bool, slots: int, threshold: int
    ) -> ThresholdResult:
        return ThresholdResult(
            decision=decision,
            queries=slots,
            rounds=1,
            threshold=threshold,
            exact=False,
            algorithm=CsmaBaseline.name,
        )


def _power_of_two(value: int) -> bool:
    return value >= 1 and value & (value - 1) == 0


def _quiet_slots(cfg: CsmaConfig, collisions: np.ndarray) -> np.ndarray:
    """Idle slots that end a run after ``collisions`` collision slots.

    The fixed period is clipped at ``max_slots + 1``: a clipped quiet end
    lies past ``max_slots`` either way, and the clip keeps it in int64.
    """
    quiet = min(cfg.quiet_slots, cfg.max_slots + 1)
    if not cfg.adaptive_quiet:
        return np.full(collisions.shape, quiet, dtype=np.int64)
    grown = np.minimum(
        cfg.initial_window << np.minimum(collisions, 30), cfg.max_window
    )
    return np.maximum(grown, quiet)


def _run_block(
    cfg: CsmaConfig,
    x: int,
    threshold: int,
    raw: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    decisions: np.ndarray,
    queries: np.ndarray,
) -> None:
    """Advance one block of runs together, one busy slot per step.

    Row state: each node's remaining backoff (``_DONE`` once it has
    replied) and window, the slot clock, the success and collision
    counts, and the index of the run's next unread pull.  Rows leave the
    block as their runs end; ``decisions`` and ``queries`` (views for
    this block) are filled in as they do.
    """
    rows = raw[0].size
    pulls = fastseed.pull_block(raw, x // 2 + _PULL_MARGIN)
    shift = np.uint64(32)

    def draw(index: np.ndarray, row: np.ndarray, window: np.ndarray) -> np.ndarray:
        """``integers(0, window)`` from pull ``index`` of block row ``row``."""
        nonlocal pulls
        need = int(index.max()) + 1
        have = pulls.shape[0] // 2
        if need > 2 * have:
            more = max(have, (need + 1) // 2 - have)
            pulls = np.concatenate(
                (pulls, fastseed.pull_block(raw, more, skip=have))
            )
        chosen = pulls.ravel().take(index * rows + row)
        return ((chosen * window.astype(np.uint64)) >> shift).astype(np.int64)

    block_row = np.arange(rows, dtype=np.int64)
    if cfg.initial_window > 1:
        # The initial size-x draw: pulls 0..x-1 of every run.
        backoff = draw(
            np.arange(x, dtype=np.int64)[None, :],
            block_row[:, None],
            np.full((1, x), cfg.initial_window, dtype=np.int64),
        )
        unread = np.full(rows, x, dtype=np.int64)
    else:
        # integers(0, 1) returns 0 without a pull.
        backoff = np.zeros((rows, x), dtype=np.int64)
        unread = np.zeros(rows, dtype=np.int64)
    window = np.full((rows, x), cfg.initial_window, dtype=np.int64)
    slot = np.zeros(rows, dtype=np.int64)
    successes = np.zeros(rows, dtype=np.int64)
    collisions = np.zeros(rows, dtype=np.int64)
    row = block_row
    while row.size:
        # Idle jump: the smallest pending backoff is the number of idle
        # slots before the next busy one.
        gap = backoff.min(axis=1)
        quiet = _quiet_slots(cfg, collisions)
        ended = gap >= quiet
        if ended.any():
            end_slot = (slot + quiet)[ended]
            if int(end_slot.max()) > cfg.max_slots:
                raise UnsupportedBatch("a run passes max_slots")
            queries[row[ended]] = end_slot
            live = ~ended
            row, backoff, window, slot, successes, collisions, unread, gap = (
                a[live]
                for a in (
                    row, backoff, window, slot, successes, collisions,
                    unread, gap,
                )
            )
            if not row.size:
                return
        slot += gap + 1
        if int(slot.max()) > cfg.max_slots:
            raise UnsupportedBatch("a run passes max_slots")
        backoff -= gap[:, None]
        sending = backoff == 0
        senders = sending.sum(axis=1)
        crowded = senders >= 2
        if crowded.any():
            # Each collider doubles its window and redraws, in node order:
            # one pull each, continuing the run's stream.
            collisions += crowded
            r, c = np.nonzero(sending & crowded[:, None])
            per_row = senders[crowded]
            rank = np.arange(r.size, dtype=np.int64) - np.repeat(
                np.cumsum(per_row) - per_row, per_row
            )
            grown = np.minimum(window[r, c] * 2, cfg.max_window)
            window[r, c] = grown
            backoff[r, c] = draw(unread[r] + rank, row[r], grown)
            unread += np.where(crowded, senders, 0)
        lone = senders == 1
        if lone.any():
            backoff[sending & lone[:, None]] = _DONE
            successes += lone
            won = successes >= threshold
            if won.any():
                decisions[row[won]] = True
                queries[row[won]] = slot[won]
                live = ~won
                row, backoff, window, slot, successes, collisions, unread = (
                    a[live]
                    for a in (
                        row, backoff, window, slot, successes, collisions,
                        unread,
                    )
                )
