"""Figure 3: performance of tcast as the threshold changes.

Mean 2tBins query cost vs the threshold ``t`` with the positive count
fixed at ``x = 4`` (the paper's choice), under both collision models.
Expected shape: the cost peaks around ``t = x`` and declines as ``t``
approaches 0 or ``n``; the 2+ curve stays at or below the 1+ curve for
every ``t``.

Implicit parameter: the population size.  The paper's described shape --
a single peak at ``t ~ x`` falling off toward both ends -- only holds for
*small* populations (the scale of their 12-14-mote testbed): we use
``N = 16``.  For large ``N`` a second, larger hump appears at
``t ~ N/2``, where ``2t`` bins degenerate to singletons and eliminating
the ``~N - t`` negatives costs one query each; the calibration sweep in
EXPERIMENTS.md documents this deviation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.api import algorithm_factory
from repro.experiments.common import Curve, ExperimentResult, Series, SweepEngine
from repro.group_testing.model import ModelSpec

DEFAULT_N = 16
DEFAULT_X = 4


def threshold_grid(n: int) -> List[int]:
    """The ``t`` grid: every value near the peak, geometric afterwards."""
    grid = sorted(set(range(1, 13)) | {16, 20, 24, 32, 48, 64, 96} | {n})
    return [t for t in grid if t <= n]


def run(
    *,
    runs: int = 400,
    seed: int = 2013,
    n: int = DEFAULT_N,
    x: int = DEFAULT_X,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Regenerate Figure 3's series.

    Args:
        runs: Repetitions per grid point.
        seed: Root seed.
        n: Population size.
        x: Fixed positive count (paper: 4).
        jobs: Worker processes for the sweep (bit-identical to serial).
    """
    ts = threshold_grid(n)
    two_t = algorithm_factory("2tbins")

    models = {
        "2tBins 1+": ModelSpec(kind="1+", max_queries=80 * n),
        "2tBins 2+": ModelSpec(kind="2+", max_queries=80 * n),
    }
    # One batch for the whole figure: a one-cell curve per (model, t),
    # each carrying its own threshold.
    engine = SweepEngine(n, ts[0], runs=runs, seed=seed, jobs=jobs)
    cells = engine.curves([
        Curve(f"{label}/t{t}", [x], two_t, model, threshold=t)
        for label, model in models.items()
        for t in ts
    ])
    series = []
    for i, label in enumerate(models):
        row = cells[i * len(ts) : (i + 1) * len(ts)]
        series.append(
            Series(
                label=label,
                xs=tuple(float(t) for t in ts),
                ys=tuple(s.ys[0] for s in row),
                stderr=tuple(s.stderr[0] for s in row),
            )
        )
    return ExperimentResult(
        exp_id="fig03",
        title=f"query cost vs threshold (x={x} fixed)",
        parameters={"n": n, "x": x, "runs": runs, "seed": seed},
        series=tuple(series),
        xlabel="t (threshold)",
        ylabel="mean queries",
    )
