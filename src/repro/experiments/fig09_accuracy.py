"""Figure 9: accuracy of the probabilistic model vs mode separation.

The workload draws ``x`` from the symmetric bimodal mixture
``mu1 = n/2 - d``, ``mu2 = n/2 + d`` and the probabilistic scheme of
Sec VI classifies each draw as quiet/activity using ``r`` repeated
sampled probes.  Accuracy -- the fraction of correct classifications over
the runs -- is plotted against the half peak distance ``d`` for several
repeat counts.

Expected shape: accuracy rises with both ``r`` and ``d``; nine repeats
already exceed 90 % once ``d > 32``; around ``d ~ 8`` the modes overlap
so heavily that accuracy slumps to ~70 % regardless of ``r``.

Implicit parameters: ``n = 128``, common ``sigma = 8`` (Fig 11's visual
overlap at ``d = 8`` and near-separation at ``d = 16`` pins sigma to
this scale), equal mixture weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analytic.bimodal import BimodalSpec
from repro.core.probabilistic import ProbabilisticThreshold
from repro.experiments.common import ExperimentResult, Series, ShardTask, run_cells
from repro.group_testing.model import OnePlusModel
from repro.sim.rng import derive_seed
from repro.workloads.bimodal import BimodalWorkload

DEFAULT_N = 128
DEFAULT_SIGMA = 8.0
DEFAULT_REPEATS = (1, 3, 9, 19)
DEFAULT_D_GRID = (4, 8, 12, 16, 24, 32, 48, 64)


def measure_accuracy(
    spec: BimodalSpec,
    repeats: int,
    *,
    runs: int,
    seed: int,
) -> float:
    """Monte-Carlo accuracy of the probabilistic scheme on one spec.

    Args:
        spec: The bimodal workload.
        repeats: Probe budget ``r``.
        runs: Number of draws scored.
        seed: Root seed.

    Returns:
        Fraction of draws whose quiet/activity classification matched the
        generating mixture component.
    """
    workload = BimodalWorkload(spec)
    scheme = ProbabilisticThreshold(spec, repeats=repeats)
    correct = 0
    for run_idx in range(runs):
        rng = np.random.default_rng(derive_seed(seed, f"r{repeats}/{run_idx}"))
        pop, draw = workload.draw_population(rng)
        model = OnePlusModel(pop, rng)
        decision = scheme.decide_detailed(model, spec.n // 2, rng)
        if decision.result.decision == draw.activity:
            correct += 1
    return correct / runs


@dataclass(frozen=True, kw_only=True)
class _AccuracyCell(ShardTask):
    """One ``(d, r)`` cell as a shard: ``x`` is ``d``, the label names
    ``r``, and the cell's one value (run ``[0, 1)``) is its accuracy."""

    sigma: float
    repeats: int
    draws: int

    def costs(self) -> List[float]:
        spec = BimodalSpec.symmetric(n=self.n, d=float(self.x), sigma=self.sigma)
        return [measure_accuracy(spec, self.repeats, runs=self.draws, seed=self.seed)]


def run(
    *,
    runs: int = 400,
    seed: int = 2019,
    n: int = DEFAULT_N,
    sigma: float = DEFAULT_SIGMA,
    repeat_counts: Sequence[int] = DEFAULT_REPEATS,
    d_grid: Sequence[int] = DEFAULT_D_GRID,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Regenerate Figure 9's series.

    Args:
        runs: Draws per (d, r) cell (paper: 1000).
        seed: Root seed.
        n: Population size.
        sigma: Common mode standard deviation.
        repeat_counts: The ``r`` values to sweep.
        d_grid: Half peak distances to sweep.
        jobs: Worker processes; the (d, r) cells are independent Monte
            Carlo estimates, so sharding them is bit-identical to serial.
    """
    tasks = [
        _AccuracyCell(
            seed=derive_seed(seed, f"d{d}"), label=f"r={r}", x=d, n=n,
            threshold=n // 2, run_lo=0, run_hi=1,
            sigma=sigma, repeats=r, draws=runs,
        )
        for r in repeat_counts
        for d in d_grid
    ]
    [accuracies] = run_cells(tasks, jobs=jobs)
    series: List[Series] = []
    for i, r in enumerate(repeat_counts):
        ys = accuracies[i * len(d_grid) : (i + 1) * len(d_grid)]
        series.append(
            Series(
                label=f"r={r}",
                xs=tuple(float(d) for d in d_grid),
                ys=tuple(ys),
            )
        )
    return ExperimentResult(
        exp_id="fig09",
        title="probabilistic-model accuracy vs mode separation",
        parameters={
            "n": n,
            "sigma": sigma,
            "repeats": tuple(repeat_counts),
            "runs": runs,
            "seed": seed,
        },
        series=tuple(series),
        xlabel="d (half peak distance)",
        ylabel="accuracy",
    )
