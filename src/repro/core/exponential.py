"""The Exponential Increase algorithm (Algorithm 2, Sec IV-B).

2tBins is wasteful when ``x << t`` (it pays ``2t`` queries in the very
first round even when one bin would have revealed near-total silence).
Exponential Increase starts with ``binNum = 2`` and doubles the bin count
after every round: early rounds eliminate large negative swaths cheaply,
and the doubling catches up with the ``x >> t`` regime within ``log``
rounds.
"""

from __future__ import annotations

from repro.core.base import SessionState, ThresholdAlgorithm
from repro.group_testing.vectorized import BatchDecision, QueryBatch, Schedule, run_lockstep


class ExponentialIncrease(ThresholdAlgorithm):
    """Algorithm 2: bin count starts at 2 and doubles each round.

    Args:
        initial_bins: First-round bin count (the paper uses 2).
        growth: Multiplicative per-round growth factor (the paper uses 2;
            the four-fold ablation of Sec IV-B lives in
            :mod:`repro.core.variations`).
        max_bins: Optional cap on the bin count; ``None`` lets it grow to
            the candidate count (querying singletons at most).  At run
            time the cap is floored at the session's threshold ``t`` --
            with fewer than ``t`` bins a round can never exhibit ``t``
            non-empty bins, so a lower cap would make true instances
            undecidable.
    """

    name = "ExpIncrease"

    def __init__(
        self,
        *,
        initial_bins: int = 2,
        growth: int = 2,
        max_bins: int | None = None,
    ) -> None:
        if initial_bins < 1:
            raise ValueError(f"initial_bins must be >= 1, got {initial_bins}")
        if growth < 2:
            raise ValueError(f"growth must be >= 2, got {growth}")
        if max_bins is not None and max_bins < initial_bins:
            raise ValueError(
                f"max_bins ({max_bins}) must be >= initial_bins ({initial_bins})"
            )
        self._initial_bins = initial_bins
        self._growth = growth
        self._max_bins = max_bins

    def schedule(self, threshold: int) -> Schedule:
        """The bin count of every round of a session with threshold ``t``.

        Round ``r`` uses ``initial_bins * growth**r`` bins, clamped to the
        cap (floored at ``t``).  The cap only ever clamps, so this equals
        the running product of Algorithm 2's doubling.  The exponent is
        clamped at 63: by then a round has at least as many bins as
        candidates, queries singletons and resolves, and the clamp keeps
        the Python ints small on pathological round counts.
        """
        initial, growth = self._initial_bins, self._growth
        cap = None if self._max_bins is None else max(self._max_bins, threshold)

        def bins(round_index: int) -> int:
            count = initial * growth ** min(round_index, 63)
            return count if cap is None else min(count, cap)

        return bins

    def _bins_for_round(self, state: SessionState) -> int:
        return self.schedule(state.threshold)(state.round_index)

    def decide_batch(self, batch: QueryBatch) -> BatchDecision:
        """Vectorized cell execution; bit-identical to :meth:`decide`.

        The bin policy is a pure :meth:`schedule` of the round index,
        which the lockstep kernel replays.
        """
        return run_lockstep(
            batch,
            self.schedule(batch.threshold),
            algorithm=self.name,
        )
