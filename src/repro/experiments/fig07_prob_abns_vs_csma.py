"""Figure 7: probabilistic ABNS vs CSMA.

The one figure whose parameters the paper states explicitly: ``N = 32``,
``t = 8``.  Expected shape: probabilistic ABNS is close to CSMA for
``x < t`` and dramatically cheaper for ``x > t`` (CSMA pays a slot per
reply; tcast's cost *falls* once positives are abundant).
"""

from __future__ import annotations

from typing import Optional

from repro.api import algorithm_factory
from repro.experiments.common import Curve, ExperimentResult, SweepEngine
from repro.group_testing.model import ModelSpec
from repro.mac import CsmaBaseline

#: Stated in the paper.
DEFAULT_N = 32
DEFAULT_T = 8


def run(
    *,
    runs: int = 400,
    seed: int = 2017,
    n: int = DEFAULT_N,
    threshold: int = DEFAULT_T,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Regenerate Figure 7's series.

    Args:
        runs: Repetitions per grid point.
        seed: Root seed.
        n: Population size (paper: 32).
        threshold: Threshold ``t`` (paper: 8).
        jobs: Worker processes for the sweep (bit-identical to serial).
    """
    xs = list(range(n + 1))
    engine = SweepEngine(n, threshold, runs=runs, seed=seed, jobs=jobs)
    one_plus = ModelSpec(kind="1+", max_queries=80 * n)

    series = engine.curves([
        Curve("ProbABNS", xs, algorithm_factory("prob-abns"), one_plus),
        Curve("CSMA", xs, CsmaBaseline),
    ])
    return ExperimentResult(
        exp_id="fig07",
        title="probabilistic ABNS vs CSMA (N=32, t=8)",
        parameters={"n": n, "t": threshold, "runs": runs, "seed": seed},
        series=tuple(series),
        ylabel="mean queries / slots",
    )
