"""Figure 4: TCast (2tBins) on the emulated mote testbed.

Reproduces the Sec IV-D experiment: an initiator plus 12 participant
motes, 2tBins over backcast, thresholds ``t in {2, 4, 6}``, positives
swept ``x = 0..12``, 100 repetitions per configuration with every mote
rebooted between runs.  Beyond the per-``x`` mean query counts (which
should track the abstract 1+ simulation), the run reports the error
profile the paper highlights:

* **no false positives** (backcast HACKs cannot be fabricated);
* a small **false-negative** rate (paper: 102 / 7200 = 1.4 %) caused by
  radio irregularities, concentrated on bins with a *single* positive
  (superposed HACKs are progressively harder to miss).

The radio-irregularity model is ``HackMissModel(p_single=0.05,
decay=0.1)`` -- calibrated so this suite lands near the paper's 1.4 %
(see EXPERIMENTS.md for the calibration sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core import TwoTBins
from repro.experiments.common import ExperimentResult, Series, ShardTask, run_cells
from repro.motes import Testbed, TestbedConfig
from repro.radio.irregularity import HackMissModel
from repro.sim.rng import derive_seed

DEFAULT_PARTICIPANTS = 12
DEFAULT_THRESHOLDS = (2, 4, 6)
DEFAULT_P_SINGLE = 0.05
DEFAULT_DECAY = 0.1

#: The columns of :func:`cells`.
MEAN, STDERR, FALSE_NEGATIVES, FALSE_POSITIVES, HACK_MISSES = range(5)


@dataclass(frozen=True, kw_only=True)
class _TestbedCell(ShardTask):
    """One ``(t, x)`` cell as a shard (``n`` is the participant count):
    its values (run range ``[0, 5)``) are the mean query count and its
    standard error, then the cell's false-negative, false-positive and
    ground-truth HACK-miss totals."""

    runs: int
    p_single: float
    decay: float
    primitive: str

    def run_count(self, values: Sequence[float]) -> int:
        return self.runs

    def costs(self) -> List[float]:
        miss_model = HackMissModel(p_single=self.p_single, decay=self.decay)
        costs = np.empty(self.runs, dtype=np.float64)
        tallies = np.zeros(3)
        for run_idx in range(self.runs):
            cell_seed = derive_seed(self.seed, f"t{self.threshold}/x{self.x}/r{run_idx}")
            tb = Testbed(TestbedConfig(
                num_participants=self.n, seed=cell_seed, hack_miss=miss_model,
                primitive=self.primitive,  # type: ignore[arg-type]
            ))
            rng = np.random.default_rng(derive_seed(cell_seed, "workload"))
            positives = rng.choice(self.n, size=self.x, replace=False) if self.x else []
            tb.configure_positives(int(p) for p in positives)
            tb.reboot_all()
            result = tb.run_threshold_query(TwoTBins(), self.threshold)
            costs[run_idx] = result.result.queries
            tallies += (result.false_negative, result.false_positive, result.hack_misses)
        err = float(costs.std(ddof=1) / np.sqrt(self.runs)) if self.runs > 1 else 0.0
        return [float(costs.mean()), err, *tallies.tolist()]


def cells(
    *, runs: int, seed: int, participants: int, thresholds: Sequence[int],
    p_single: float, decay: float, primitive: str = "backcast",
    jobs: Optional[int] = 1,
) -> List[tuple[float, ...]]:
    """Every ``(t, x)`` cell's values by column (:data:`MEAN` ..
    :data:`HACK_MISSES`), ``t``-major, from :func:`run`'s arguments."""
    return run_cells([
        _TestbedCell(
            # p_single is in the label: calibration runs these cells at
            # several p_single values.
            seed=seed, label=f"t={t} p_single={p_single!r}", x=x,
            n=participants, threshold=t, run_lo=0, run_hi=5,
            runs=runs, p_single=p_single, decay=decay, primitive=primitive,
        )
        for t in thresholds
        for x in range(participants + 1)
    ], jobs=jobs)


def run(
    *,
    runs: int = 100,
    seed: int = 2014,
    participants: int = DEFAULT_PARTICIPANTS,
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS,
    p_single: float = DEFAULT_P_SINGLE,
    decay: float = DEFAULT_DECAY,
    primitive: str = "backcast",
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Regenerate Figure 4's series on the packet-level testbed.

    Args:
        runs: Repetitions per (x, t) cell (paper: 100).
        seed: Root seed.
        participants: Participant mote count (paper: 12).
        thresholds: Thresholds to sweep (paper: 2, 4, 6).
        p_single: Lone-HACK miss probability of the irregularity model.
        decay: Per-extra-HACK miss decay.
        primitive: RCD primitive for bin queries (the paper's experiment
            uses backcast; pollcast/votecast variants are available for
            comparison -- the miss model only affects backcast's HACKs).
        jobs: Worker processes (the cells are shards, bit-identical
            to serial).

    Returns:
        One mean-query curve per threshold, plus error-rate notes.
    """
    columns = cells(
        runs=runs, seed=seed, participants=participants,
        thresholds=thresholds, p_single=p_single, decay=decay,
        primitive=primitive, jobs=jobs,
    )
    means, errs = columns[MEAN], columns[STDERR]
    width = participants + 1
    xs = tuple(float(x) for x in range(width))
    series = [
        Series(
            label=f"t={t}", xs=xs, ys=means[i * width : (i + 1) * width],
            stderr=errs[i * width : (i + 1) * width],
        )
        for i, t in enumerate(thresholds)
    ]
    total_runs = runs * len(means)
    fn, fp, misses = map(sum, columns[FALSE_NEGATIVES:])
    fn_rate = fn / total_runs if total_runs else 0.0
    notes = (
        f"false-negative runs: {fn:.0f}/{total_runs} "
        f"({fn_rate:.1%}; paper: 102/7200 = 1.4%)",
        f"false-positive runs: {fp:.0f} (paper: 0)",
        f"ground-truth HACK misses: {misses:.0f}",
    )
    return ExperimentResult(
        exp_id="fig04",
        title="2tBins on the emulated mote testbed (backcast)",
        parameters={
            "participants": participants,
            "thresholds": thresholds,
            "runs": runs,
            "seed": seed,
            "p_single": p_single,
            "decay": decay,
            "primitive": primitive,
        },
        series=tuple(series),
        ylabel="mean bin queries",
        notes=notes,
    )
