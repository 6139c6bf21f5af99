"""Sequential-ordering (TDMA) baseline (Sec IV-C).

The initiator broadcasts a schedule assigning every participant its own
reply slot (the paper's clock-synchronised variant, which it notes
"favors the sequential ordering results").  Slot ``i`` belongs to node
``i`` of the schedule; a positive node replies in its slot, a negative
node stays silent.  The initiator terminates early:

* **true** as soon as ``t`` positive replies have been heard;
* **false** as soon as even all-remaining-positive slots could not reach
  ``t``.

The scheme is exact and collision-free, but pays ``~(n - t)`` slots when
``x << t`` and ``~n t / x`` when positives are spread out -- the large
constant overhead visible at the left edge of Figure 1.

:meth:`SequentialOrdering.decide` is the slot-by-slot oracle;
:meth:`SequentialOrdering.decide_batch` answers a whole sweep cell with
the same draws (DESIGN.md section 14.3).
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ThresholdResult
from repro.group_testing.population import Population
from repro.group_testing.vectorized import (
    BatchDecision,
    QueryBatch,
    UnsupportedBatch,
    fast_states,
    mark_positives,
)
from repro.sim import fastseed

#: Runs per block of :meth:`SequentialOrdering.decide_batch`.  A block's
#: arrays grow with rows x n, so blocks bound a cell's memory; runs are
#: independent, so the block size never changes a result.
_BLOCK_ROWS = 256


class SequentialOrdering:
    """Collision-free per-node reply schedule with early termination.

    Args:
        shuffle: Whether the initiator randomises the schedule order each
            session (default) or uses node-id order.  Randomising makes the
            expected cost depend only on ``x``, not on which nodes are
            positive.
    """

    name = "Sequential"

    def __init__(self, *, shuffle: bool = True) -> None:
        self._shuffle = shuffle

    def decide(
        self,
        population: Population,
        threshold: int,
        rng: np.random.Generator,
    ) -> ThresholdResult:
        """Simulate one sequential-ordering session.

        Args:
            population: Ground truth.
            threshold: The threshold ``t``.
            rng: Randomness for the schedule shuffle.

        Returns:
            A :class:`ThresholdResult` with ``queries`` = elapsed slots and
            ``exact=True`` (the schedule certifies both verdicts).
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        n = population.size
        if threshold == 0:
            return self._result(True, 0, threshold)
        if threshold > n:
            return self._result(False, 0, threshold)

        schedule = np.arange(n)
        if self._shuffle:
            rng.shuffle(schedule)

        positives_seen = 0
        for slot, node in enumerate(schedule, start=1):
            if population.is_positive(int(node)):
                positives_seen += 1
                if positives_seen >= threshold:
                    return self._result(True, slot, threshold)
            remaining = n - slot
            if positives_seen + remaining < threshold:
                return self._result(False, slot, threshold)
        # The loop always terminates via one of the two conditions above
        # (at slot n, remaining == 0).
        raise AssertionError("unreachable: early termination is exhaustive")

    def decide_batch(self, batch: QueryBatch) -> BatchDecision:
        """Every run of a sweep cell at once, bit-identical to :meth:`decide`.

        Exactly one early exit can fire: a run with ``x >= t`` stops at
        the slot of the ``t``-th positive in its schedule, one with
        ``x < t`` at the slot of the ``(n - t + 1)``-th negative.  Each
        run's population is drawn on its ``"pop"`` stream (in bulk where
        :func:`~repro.group_testing.vectorized.mark_positives` can) and
        its schedule by one ``shuffle`` on its ``"mac"`` stream; the
        stopping slot is then a cumsum/argmax over a block of rows.  With
        every node negative (``x = 0``) or positive (``x = n``) it
        depends on no draw at all.

        Raises:
            UnsupportedBatch: For a batch without the registry seed
                contract, or a numpy that defeats :mod:`repro.sim.fastseed`.
            ValueError: If the threshold is negative (as :meth:`decide`).
        """
        n, x, threshold, runs = batch.n, batch.x, batch.threshold, batch.runs
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        queries = np.zeros(runs, dtype=np.int64)
        if threshold == 0 or threshold > n:
            return BatchDecision(
                decisions=np.full(runs, threshold == 0),
                queries=queries,
                exact=True,
            )
        truth = x >= threshold
        decisions = np.full(runs, truth)
        # The exit slot's rank among slots of its kind.
        rank = threshold if truth else n - threshold + 1
        if x in (0, n):
            queries[:] = rank
            return BatchDecision(decisions=decisions, queries=queries, exact=True)
        states = fast_states(
            batch, ("pop", "mac") if self._shuffle else ("pop",), raw=("pop",)
        )
        if states is None:
            raise UnsupportedBatch("the run streams cannot be rebuilt in bulk")
        # One generator, repositioned at each run's mac stream in turn.
        pool = fastseed.GeneratorPool()
        pool.reserve(1)
        for lo in range(0, runs, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, runs)
            rows = hi - lo
            hits = np.zeros((rows, n), dtype=bool)
            mark_positives(hits, tuple(a[lo:hi] for a in states["pop"]), n, x)
            if self._shuffle:
                schedule = np.broadcast_to(
                    np.arange(n, dtype=np.int64), (rows, n)
                ).copy()
                for order, (state, inc) in zip(schedule, states["mac"][lo:hi]):
                    pool.load(0, state, inc).shuffle(order)
                hits = hits.ravel().take(
                    schedule + (np.arange(rows, dtype=np.int64) * n)[:, None]
                )
            seen = np.cumsum(hits if truth else ~hits, axis=1)
            queries[lo:hi] = np.argmax(seen >= rank, axis=1) + 1
        return BatchDecision(decisions=decisions, queries=queries, exact=True)

    @staticmethod
    def _result(decision: bool, slots: int, threshold: int) -> ThresholdResult:
        return ThresholdResult(
            decision=decision,
            queries=slots,
            rounds=1,
            threshold=threshold,
            exact=True,
            algorithm=SequentialOrdering.name,
        )
