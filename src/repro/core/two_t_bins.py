"""The 2tBins algorithm (Algorithm 1, Sec IV-A).

Every round partitions the surviving candidates into ``2t`` equal-sized
random bins and queries them one after another.  A silent bin eliminates
its members; ``t`` non-empty bins within a round prove the threshold;
fewer than ``t`` surviving candidates disprove it.  An unresolved full
round therefore saw at least ``t + 1`` silent bins, so the candidate set
at least roughly halves, giving the ``2t * log(N / 2t)`` worst-case query
bound of Sec IV-A.
"""

from __future__ import annotations

from repro.core.base import SessionState, ThresholdAlgorithm
from repro.group_testing.vectorized import BatchDecision, QueryBatch, Schedule, run_lockstep


class TwoTBins(ThresholdAlgorithm):
    """Algorithm 1: fixed ``2t`` bins per round.

    Example:
        >>> import numpy as np
        >>> from repro.group_testing import OnePlusModel, Population
        >>> rng = np.random.default_rng(0)
        >>> model = OnePlusModel(Population.from_count(64, 20), rng)
        >>> result = TwoTBins().decide(model, threshold=8, rng=rng)
        >>> result.decision
        True
    """

    name = "2tBins"

    def schedule(self, threshold: int) -> Schedule:
        """Every round uses ``2t`` bins (at least 2, for ``t <= 1``)."""
        bins = max(2, 2 * threshold)
        return lambda round_index: bins

    def _bins_for_round(self, state: SessionState) -> int:
        return self.schedule(state.threshold)(state.round_index)

    def decide_batch(self, batch: QueryBatch) -> BatchDecision:
        """Vectorized cell execution; bit-identical to :meth:`decide`.

        The bin count is a constant of the session, so the whole cell
        runs on the lockstep kernel.
        """
        return run_lockstep(
            batch,
            self.schedule(batch.threshold),
            algorithm=self.name,
        )
