"""Figure 6: the probabilistic-probe ABNS variant.

Probabilistic ABNS (one sampled probe picks between ``ABNS(p0 = t/4)``
and 2tBins) vs the two fixed-``p0`` ABNS variants and the oracle.
Expected shape (Sec V-D): the probe variant eliminates *both* penalties
-- the ``ABNS(p0=t)`` overhead for ``t < x < 2t`` and the
``ABNS(p0=2t)`` overhead for ``x < t/2`` -- tracking the oracle closely
across the whole sweep.

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
    seed: int = 2016,
    n: int = DEFAULT_N,
    threshold: int = DEFAULT_T,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Regenerate Figure 6's series.

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
        Curve("ProbABNS", xs, algorithm_factory("prob-abns"), one_plus),
        Curve("ABNS(p0=t)", xs, algorithm_factory("abns", p0_multiple=1.0), one_plus),
        Curve("ABNS(p0=2t)", xs, algorithm_factory("abns", p0_multiple=2.0), one_plus),
        Curve("Oracle", xs, algorithm_factory("oracle"), one_plus),
    ])
    return ExperimentResult(
        exp_id="fig06",
        title="probabilistic ABNS vs fixed-p0 ABNS vs oracle",
        parameters={"n": n, "t": threshold, "runs": runs, "seed": seed},
        series=tuple(series),
    )
