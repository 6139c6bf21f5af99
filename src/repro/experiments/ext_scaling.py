"""Extension experiment: scaling with the neighbourhood size.

The asymptotic story behind the paper -- tcast needs ``O(t log(N/t))``
queries where sequential ordering needs ``Θ(N)`` -- is argued but never
plotted.  This extension sweeps ``N`` at fixed threshold and measures the
mean query cost in the regime where the gap is widest (``x = 0``: the
initiator must *certify* the negative, so sequential scans almost the
whole schedule while tcast discards log-many halves), alongside the
``2t·(log2(N/2t)+1)`` worst-case envelope.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analytic.bounds import upper_bound_queries
from repro.api import algorithm_factory
from repro.experiments.common import Curve, ExperimentResult, Series, SweepEngine
from repro.group_testing.model import ModelSpec
from repro.mac import SequentialOrdering

DEFAULT_T = 8
DEFAULT_NS = (32, 64, 128, 256, 512, 1024)
DEFAULT_X = 0


def run(
    *,
    runs: int = 200,
    seed: int = 2032,
    threshold: int = DEFAULT_T,
    ns: Sequence[int] = DEFAULT_NS,
    x: int = DEFAULT_X,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Measure query cost vs population size at fixed ``t`` and ``x``.

    Args:
        runs: Repetitions per population size.
        seed: Root seed.
        threshold: Fixed threshold ``t``.
        ns: Population sizes to sweep.
        x: Fixed positive count (default 0: the certification-heavy
            regime where the scaling gap is widest).
        jobs: Worker processes for the sweep (bit-identical to serial).
    """
    two_t = algorithm_factory("2tbins")
    prob_abns = algorithm_factory("prob-abns")

    # One batch for the whole figure: every one-cell curve carries its
    # own n and seed (seed + n), so the engine's n and seed go unused.
    engine = SweepEngine(0, threshold, runs=runs, seed=seed, jobs=jobs)
    curves: List[Curve] = []
    for n in ns:
        one_plus = ModelSpec(kind="1+", max_queries=100 * max(n, 1))
        curves += [
            Curve("2tBins", [x], two_t, one_plus, n=n, seed=seed + n),
            Curve("ProbABNS", [x], prob_abns, one_plus, n=n, seed=seed + n),
            Curve("Sequential", [x], SequentialOrdering, n=n, seed=seed + n),
        ]
    ys = [s.ys[0] for s in engine.curves(curves)]
    tcast_ys, prob_ys, seq_ys = ys[0::3], ys[1::3], ys[2::3]
    bound_ys = [float(upper_bound_queries(n, threshold)) for n in ns]

    fxs = tuple(float(n) for n in ns)
    return ExperimentResult(
        exp_id="ext_scaling",
        title=f"query cost vs neighbourhood size (t={threshold}, x={x})",
        parameters={"t": threshold, "x": x, "runs": runs, "seed": seed},
        series=(
            Series(label="2tBins", xs=fxs, ys=tuple(tcast_ys)),
            Series(label="ProbABNS", xs=fxs, ys=tuple(prob_ys)),
            Series(label="Sequential", xs=fxs, ys=tuple(seq_ys)),
            Series(label="2t(log2(N/2t)+1) bound", xs=fxs, ys=tuple(bound_ys)),
        ),
        xlabel="N (neighbourhood size)",
        ylabel="mean queries / slots",
        notes=(
            "sequential grows linearly in N; tcast logarithmically -- the "
            "O(t log(N/t)) vs Theta(N) separation of Sec I",
        ),
    )
