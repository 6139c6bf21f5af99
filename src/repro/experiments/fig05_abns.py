"""Figure 5: Adaptive Bin Number Selection (ABNS) performance.

2tBins vs ABNS with ``p0 = t`` and ``p0 = 2t`` vs the oracle, 1+ model.
Expected shape (Sec V-C):

* 2tBins tracks the oracle closely for ``x > t/2``;
* the 2tBins-vs-oracle gap opens as ``x`` shrinks below ``t/2``;
* ``ABNS(p0 = t)`` narrows that left-edge gap at the price of some
  overhead around ``t < x < 2t``.

Implicit parameters: ``N = 128``, ``t = 16``.
"""

from __future__ import annotations

from typing import Optional

from repro.api import algorithm_factory
from repro.experiments.common import Curve, ExperimentResult, SweepEngine
from repro.group_testing.model import ModelSpec
from repro.workloads.scenarios import x_sweep

DEFAULT_N = 128
DEFAULT_T = 16


def run(
    *,
    runs: int = 400,
    seed: int = 2015,
    n: int = DEFAULT_N,
    threshold: int = DEFAULT_T,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Regenerate Figure 5's series.

    Args:
        runs: Repetitions per grid point.
        seed: Root seed.
        n: Population size.
        threshold: Threshold ``t``.
        jobs: Worker processes for the sweep (bit-identical to serial).
    """
    xs = x_sweep(n)
    engine = SweepEngine(n, threshold, runs=runs, seed=seed, jobs=jobs)
    one_plus = ModelSpec(kind="1+", max_queries=80 * n)

    series = engine.curves([
        Curve("2tBins", xs, algorithm_factory("2tbins"), one_plus),
        Curve("ABNS(p0=t)", xs, algorithm_factory("abns", p0_multiple=1.0), one_plus),
        Curve("ABNS(p0=2t)", xs, algorithm_factory("abns", p0_multiple=2.0), one_plus),
        Curve("Oracle", xs, algorithm_factory("oracle"), one_plus),
    ])
    return ExperimentResult(
        exp_id="fig05",
        title="ABNS vs 2tBins vs oracle",
        parameters={"n": n, "t": threshold, "runs": runs, "seed": seed},
        series=tuple(series),
    )
