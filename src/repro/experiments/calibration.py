"""Calibration of the radio-irregularity model against Fig 4's error rate.

EXPERIMENTS.md note C1 claims the HACK-miss parameters were "calibrated
so the paper's 12-mote suite lands near its reported 1.4 % false-negative
run rate"; this module *is* that calibration, kept executable so the
claim can be re-verified or re-fit after substrate changes:

1. :func:`measure_false_negative_rate` runs Fig 4's own ``(t, x)``
   cells (:func:`repro.experiments.fig04_testbed.cells`: uniform ``x``,
   reboots between runs) for one ``(p_single, decay)`` pair and sums
   their false-negative column.
2. :func:`calibrate` sweeps ``p_single`` over a grid and returns the
   value whose measured rate is closest to the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments import fig04_testbed

#: The paper's reported rate: 102 false-negative runs out of 7200.
PAPER_TARGET_RATE = 102 / 7200


def measure_false_negative_rate(
    p_single: float,
    *,
    decay: float = 0.1,
    participants: int = 12,
    thresholds: Sequence[int] = (2, 4, 6),
    runs_per_cell: int = 25,
    seed: int = 0,
) -> Tuple[float, int]:
    """False-negative run rate of the Fig 4 suite for one miss model.

    Args:
        p_single: Lone-HACK miss probability.
        decay: Per-extra-HACK miss decay.
        participants: Participant mote count.
        thresholds: Thresholds swept (the paper's 2/4/6).
        runs_per_cell: Runs per (threshold, x) cell.
        seed: Root seed.

    Returns:
        ``(rate, total_runs)`` -- the measured false-negative fraction and
        the suite size it was measured over.
    """
    false_negatives = fig04_testbed.cells(
        runs=runs_per_cell, seed=seed, participants=participants,
        thresholds=thresholds, p_single=p_single, decay=decay,
    )[fig04_testbed.FALSE_NEGATIVES]
    total = runs_per_cell * len(false_negatives)
    return sum(false_negatives) / total, total


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration sweep.

    Attributes:
        best_p_single: Grid value whose rate is closest to the target.
        target_rate: The rate being matched (paper: 102/7200).
        table: ``(p_single, measured_rate)`` pairs across the grid.
        total_runs: Suite size behind each measurement.
    """

    best_p_single: float
    target_rate: float
    table: Tuple[Tuple[float, float], ...]
    total_runs: int

    def report(self) -> str:
        """Human-readable calibration table."""
        lines = [
            f"target false-negative rate: {self.target_rate:.2%} "
            f"(paper: 102/7200)",
            f"suite size per grid point: {self.total_runs} runs",
        ]
        for p, rate in self.table:
            marker = "  <-- selected" if p == self.best_p_single else ""
            lines.append(f"  p_single={p:<6g} rate={rate:.2%}{marker}")
        return "\n".join(lines)


def calibrate(
    *,
    target: float = PAPER_TARGET_RATE,
    grid: Sequence[float] = (0.01, 0.03, 0.05, 0.08, 0.12),
    decay: float = 0.1,
    participants: int = 12,
    runs_per_cell: int = 25,
    seed: int = 0,
) -> CalibrationResult:
    """Sweep ``p_single`` and pick the closest match to ``target``.

    Args:
        target: False-negative run rate to match.
        grid: Candidate ``p_single`` values.
        decay: Per-extra-HACK miss decay (held fixed; it is pinned by the
            paper's "misses concentrate on single-positive bins" finding
            rather than by the aggregate rate).
        participants: Participant mote count.
        runs_per_cell: Runs per (threshold, x) cell.
        seed: Root seed.

    Returns:
        The :class:`CalibrationResult`.

    Raises:
        ValueError: On an empty grid.
    """
    if not grid:
        raise ValueError("calibration grid must not be empty")
    table: List[Tuple[float, float]] = []
    total = 0
    for p in grid:
        rate, total = measure_false_negative_rate(
            p,
            decay=decay,
            participants=participants,
            runs_per_cell=runs_per_cell,
            seed=seed,
        )
        table.append((float(p), rate))
    best = min(table, key=lambda pair: abs(pair[1] - target))[0]
    return CalibrationResult(
        best_p_single=best,
        target_rate=target,
        table=tuple(table),
        total_runs=total,
    )
