"""Extension experiment: tcast error profile under multihop interference.

The paper defers interference experiments to future work (the Kansei
testbed) but states the expected asymmetry: backcast-based tcast may
suffer false *negatives* under interfering traffic from neighbouring
regions, never false *positives* (Sec III-B).  This experiment sweeps
the interference rate and measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import ExperimentResult, Series, ShardTask, run_cells
from repro.ext.multihop import InterferenceStudy

DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.25, 0.5)


@dataclass(frozen=True, kw_only=True)
class _RateCell(ShardTask):
    """One rate as a shard: ``x`` is its grid index (the rate is in the
    label) and ``n`` the participant count; its values (run range
    ``[0, 3)``) are the false-negative rate, the mean query count and
    the false-positive total."""

    rate: float
    runs: int

    def costs(self) -> List[float]:
        study = InterferenceStudy(participants=self.n, threshold=self.threshold, seed=self.seed)
        r = study.run_rate(self.rate, runs=self.runs)
        return [r.false_negative_rate, r.mean_queries, r.false_positives]


def run(
    *,
    runs: int = 60,
    seed: int = 2031,
    participants: int = 12,
    threshold: int = 4,
    rates: Sequence[float] = DEFAULT_RATES,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Sweep interference rates against full tcast sessions.

    Args:
        runs: tcast sessions per rate.
        seed: Root seed.
        participants: Neighbourhood size.
        threshold: Threshold ``t``.
        rates: Interference rates (frames per millisecond).
        jobs: Worker processes (the rates are shards, bit-identical
            to serial).
    """
    fn_rates, mean_queries, false_positives = run_cells([
        _RateCell(
            seed=seed, label=f"rate={rate!r}", x=i, n=participants,
            threshold=threshold, run_lo=0, run_hi=3, rate=rate, runs=runs,
        )
        for i, rate in enumerate(rates)
    ], jobs=jobs)
    fxs = tuple(float(r) for r in rates)
    return ExperimentResult(
        exp_id="ext_interference",
        title="tcast error profile under interfering traffic",
        parameters={
            "participants": participants,
            "t": threshold,
            "runs": runs,
            "seed": seed,
        },
        series=(
            Series(label="false-negative rate", xs=fxs, ys=fn_rates),
            Series(label="mean queries", xs=fxs, ys=mean_queries),
        ),
        xlabel="interference rate (frames/ms)",
        ylabel="rate / queries",
        notes=(
            f"false positives across all rates: {sum(false_positives):.0f} "
            "(backcast structurally cannot fabricate a HACK)",
        ),
    )
