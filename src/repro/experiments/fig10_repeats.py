"""Figure 10: estimated repeats for a 95 % success rate vs separation.

Pure analytics: for each half peak distance ``d``, size the probe via the
gap-optimal bin count and invert Eq 10 at ``delta = 5 %``.  Expected
shape: the required repeat count falls steeply as the modes separate; it
blows up (and Eq 10 stops applying) as ``d`` approaches ``2 * sigma``
where the 2-sigma boundaries ``t_l`` and ``t_r`` collide -- the paper's
"total separation occurs when d > 16" remark for ``sigma = 8``.

A second, Monte-Carlo series cross-checks the analytic sizing: for each
``d`` it reports the smallest ``r`` whose measured accuracy (over
``runs`` draws) reaches 95 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analytic.bimodal import BimodalSpec, analyze_separation
from repro.experiments.common import ExperimentResult, Series, ShardTask, run_cells
from repro.experiments.fig09_accuracy import measure_accuracy
from repro.sim.rng import derive_seed

DEFAULT_N = 128
DEFAULT_SIGMA = 8.0
DEFAULT_DELTA = 0.05
DEFAULT_D_GRID = (18, 20, 24, 32, 40, 48, 56, 64)
_SEARCH_GRID = (1, 2, 3, 5, 7, 9, 12, 15, 19, 25, 31, 41, 51)


def analytic_repeats(
    n: int, d: float, sigma: float, delta: float
) -> Optional[int]:
    """Eq 10 repeat count for one spec, or ``None`` when inapplicable."""
    spec = BimodalSpec.symmetric(n=n, d=d, sigma=sigma)
    analysis = analyze_separation(spec)
    if not analysis.feasible:
        return None
    return analysis.repeats(delta)


@dataclass(frozen=True, kw_only=True)
class _MinRepeatsCell(ShardTask):
    """One ``d`` as a shard (``x`` is ``d``): its one value (run
    ``[0, 1)``) is the smallest ``r`` on the search grid whose measured
    accuracy reaches ``1 - delta``, or ``nan`` if none does.

    The early-exit search is the same wherever the shard runs, so the
    result (and the Monte-Carlo evaluations performed) are too.
    """

    sigma: float
    draws: int
    delta: float

    def costs(self) -> List[float]:
        spec = BimodalSpec.symmetric(n=self.n, d=float(self.x), sigma=self.sigma)
        for candidate in _SEARCH_GRID:
            acc = measure_accuracy(spec, candidate, runs=self.draws, seed=self.seed)
            if acc >= 1.0 - self.delta:
                return [float(candidate)]
        return [float("nan")]


def run(
    *,
    runs: int = 300,
    seed: int = 2020,
    n: int = DEFAULT_N,
    sigma: float = DEFAULT_SIGMA,
    delta: float = DEFAULT_DELTA,
    d_grid: Sequence[int] = DEFAULT_D_GRID,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Regenerate Figure 10's series.

    Args:
        runs: Draws per measured-accuracy evaluation (0 skips the
            Monte-Carlo cross-check and reports only the analytic curve).
        seed: Root seed.
        n: Population size.
        sigma: Common mode standard deviation.
        delta: Target failure probability (paper: 5 %).
        d_grid: Half peak distances (all must exceed ``2*sigma`` so the
            boundaries are separated).
        jobs: Worker processes; the per-``d`` searches are independent,
            so sharding them is bit-identical to serial.
    """
    analytic_ys: List[float] = [
        float(r) if (r := analytic_repeats(n, float(d), sigma, delta)) is not None
        else float("nan")
        for d in d_grid
    ]
    xs = tuple(float(d) for d in d_grid)
    series = [Series(label=f"Eq10 (delta={delta:g})", xs=xs, ys=tuple(analytic_ys))]
    if runs > 0:
        tasks = [
            _MinRepeatsCell(
                seed=derive_seed(seed, f"d{d}"), label="measured min r", x=d,
                n=n, threshold=n // 2, run_lo=0, run_hi=1,
                sigma=sigma, draws=runs, delta=delta,
            )
            for d in d_grid
        ]
        [measured_ys] = run_cells(tasks, jobs=jobs)
        series.append(Series(label="measured min r", xs=xs, ys=measured_ys))
    return ExperimentResult(
        exp_id="fig10",
        title=f"repeats needed for {1 - delta:.0%} success vs separation",
        parameters={
            "n": n,
            "sigma": sigma,
            "delta": delta,
            "runs": runs,
            "seed": seed,
        },
        series=tuple(series),
        xlabel="d (half peak distance)",
        ylabel="repeats r",
    )
