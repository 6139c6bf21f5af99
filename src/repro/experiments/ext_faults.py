"""Extension experiment: fault injection vs the reliable-query layer.

The paper's testbed runs show tcast's one error mode -- HACK detection
failures turning active bins silent, i.e. false negatives (Sec IV-D).
This experiment injects exactly that fault into the abstract 1+ model at
a swept severity ``p_single`` (the lone-HACK miss probability of
:class:`repro.radio.irregularity.HackMissModel`) and measures two arms
under common random numbers:

* **plain** -- :class:`repro.core.two_t_bins.TwoTBins` unwrapped: its
  false-negative rate grows with ``p_single``.
* **reliable** -- the same algorithm wrapped in
  :class:`repro.core.reliable.ReliableThreshold` with a Chernoff-sized
  silence-confirmation policy
  (:class:`repro.core.reliable.ChernoffConfirm`): each silent bin is
  re-queried until the residual miss probability drops below ``delta``,
  which should hold accuracy near-perfect at well under 2x query cost
  (re-queries only ever touch silent bins, so the multiplier is bounded
  by the confirmation count).

Workloads draw ``x`` uniformly from ``{t, ..., 2t}`` -- every run's
ground truth is *True*, the only regime where false negatives exist, and
the small margins keep single-bin misses consequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.reliable import ChernoffConfirm, NoRetry, ReliableThreshold
from repro.core.two_t_bins import TwoTBins
from repro.experiments.common import ExperimentResult, Series, ShardTask, run_cells
from repro.group_testing.model import OnePlusModel
from repro.group_testing.population import Population
from repro.radio.irregularity import HackMissModel
from repro.sim.rng import RngRegistry

DEFAULT_P_SINGLES = (0.0, 0.02, 0.05, 0.1, 0.15, 0.2)


@dataclass(frozen=True, kw_only=True)
class _SeverityCell(ShardTask):
    """One ``p_single`` as a shard: ``x`` is its grid index (the value is
    in the label); its values (run range ``[0, 5)``) are the plain and
    reliable false-negative rates, their mean query counts and the mean
    retry count."""

    p_single: float
    runs: int
    decay: float
    delta: float

    def costs(self) -> List[float]:
        p, threshold, runs = self.p_single, self.threshold, self.runs
        miss = HackMissModel(p_single=p, decay=self.decay).miss_probability
        policy = NoRetry() if p == 0.0 else ChernoffConfirm(p, delta=self.delta)
        reliable = ReliableThreshold(TwoTBins(), policy)
        root = RngRegistry(self.seed)
        errs_plain = errs_rel = 0
        cost_plain = cost_rel = retries = 0
        for r in range(runs):
            reg = root.fork(f"p{p}/r{r}")
            x = int(reg.stream("workload").integers(threshold, 2 * threshold + 1))
            pop = Population.from_count(self.n, x, reg.stream("pop"))
            # Common workload, independent fault draws per arm.
            model_a = OnePlusModel(pop, reg.stream("model.plain"), detection_failure=miss)
            model_b = OnePlusModel(pop, reg.stream("model.rel"), detection_failure=miss)
            res_a = TwoTBins().decide(model_a, threshold, reg.stream("bins"))
            res_b = reliable.decide(model_b, threshold, reg.stream("bins.rel"))
            errs_plain += res_a.decision is not True
            errs_rel += res_b.decision is not True
            cost_plain += res_a.queries
            cost_rel += res_b.queries
            assert res_b.reliability is not None
            retries += res_b.reliability.retries
        return [v / runs for v in (errs_plain, errs_rel, cost_plain, cost_rel, retries)]


def run(
    *,
    runs: int = 400,
    seed: int = 4041,
    n: int = 24,
    threshold: int = 4,
    p_singles: Sequence[float] = DEFAULT_P_SINGLES,
    decay: float = 0.1,
    delta: float = 0.001,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Sweep fault severity against plain and reliability-wrapped 2tBins.

    Args:
        runs: Sessions per severity level and arm.
        seed: Root seed.
        n: Population size.
        threshold: Threshold ``t``; workloads draw ``x`` in ``[t, 2t]``.
        p_singles: Lone-HACK miss probabilities to sweep.
        decay: Per-extra-HACK miss decay of the injected fault model.
        delta: Residual per-bin miss target of the Chernoff policy.
        jobs: Worker processes (the severity levels are shards,
            bit-identical to serial).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    fn_plain, fn_reliable, q_plain, q_reliable, retries_mean = run_cells([
        _SeverityCell(
            seed=seed, label=f"p={p!r}", x=i, n=n, threshold=threshold,
            run_lo=0, run_hi=5, p_single=p, runs=runs, decay=decay, delta=delta,
        )
        for i, p in enumerate(p_singles)
    ], jobs=jobs)
    xs = tuple(float(p) for p in p_singles)
    multipliers = tuple(
        qr / qp if qp else 1.0 for qp, qr in zip(q_plain, q_reliable)
    )
    return ExperimentResult(
        exp_id="ext_faults",
        title="fault injection vs the reliable-query layer (2tBins)",
        parameters={
            "n": n,
            "t": threshold,
            "runs": runs,
            "seed": seed,
            "decay": decay,
            "delta": delta,
        },
        series=(
            Series(label="2tBins FN rate", xs=xs, ys=fn_plain),
            Series(label="reliable FN rate", xs=xs, ys=fn_reliable),
            Series(label="2tBins mean queries", xs=xs, ys=q_plain),
            Series(label="reliable mean queries", xs=xs, ys=q_reliable),
            Series(label="mean retries", xs=xs, ys=retries_mean),
        ),
        xlabel="p_single (lone-HACK miss probability)",
        ylabel="rate / queries",
        notes=(
            "cost multipliers (reliable/plain): "
            + ", ".join(
                f"p={p:g}: {m:.2f}x" for p, m in zip(xs, multipliers)
            ),
            "all errors are false negatives; x drawn uniformly in [t, 2t] "
            "so ground truth is always True",
        ),
    )
