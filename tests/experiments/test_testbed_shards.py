"""The packet-level runners (fig04, ext_latency, ext_interference,
ext_faults) run their cells as supervised whole-cell shards.

Their CSV and report text are pinned to golden files written by the
serial per-run loops these shards replaced (``golden/``), at one and two
workers.  A journalled fig04 run resumes without computing a shard, and
``run_shards`` hands a batch that mixes populations to the pool largest
``n`` first.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import (
    ext_faults,
    ext_interference,
    ext_latency,
    ext_scaling,
    fig04_testbed,
    resilience,
)
from repro.experiments import cli as experiments_cli
from repro.experiments.calibration import measure_false_negative_rate
from repro.experiments.common import shutdown_executors
from repro.experiments.resilience import RunContext, ShardJournal
from repro.obs import get_registry

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

GOLDEN = Path(__file__).parent / "golden"

#: Each runner's reduced golden configuration.
GOLDEN_RUNS = {
    "fig04": (fig04_testbed.run, dict(runs=3, thresholds=(2,))),
    "ext_latency": (ext_latency.run, dict(runs=2)),
    "ext_interference": (ext_interference.run, dict(runs=5, rates=(0.0, 2.0))),
    "ext_faults": (ext_faults.run, dict(runs=20, p_singles=(0.0, 0.1))),
}


@pytest.fixture(scope="module", autouse=True)
def _fake_multicore():
    """Pretend the host has >= 4 CPUs so jobs=2 survives the clamp."""
    real = os.cpu_count
    mp = pytest.MonkeyPatch()
    mp.setattr(os, "cpu_count", lambda: max(4, real() or 1))
    yield
    mp.undo()


@pytest.fixture(scope="module", autouse=True)
def _reap_executors():
    yield
    shutdown_executors()


@pytest.fixture
def _pristine_registry():
    registry = get_registry()
    registry.disable()
    registry.reset()
    yield registry
    registry.disable()
    registry.reset()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("exp_id", sorted(GOLDEN_RUNS))
def test_output_matches_golden(exp_id, jobs):
    runner, kwargs = GOLDEN_RUNS[exp_id]
    result = runner(jobs=jobs, **kwargs)
    assert result.to_csv() + "\n" == (GOLDEN / f"{exp_id}.csv").read_text()
    assert result.report() + "\n" == (GOLDEN / f"{exp_id}.txt").read_text()


def test_fig04_resume_computes_no_shard(tmp_path, _pristine_registry):
    path = tmp_path / "fig04.journal"

    def journalled(resume):
        journal = ShardJournal(
            path, exp_id="fig04", key="k" * 64, resume=resume, fsync=False
        )
        with resilience.activate(RunContext(journal=journal)):
            return fig04_testbed.run(runs=2)

    first = journalled(resume=False)
    _pristine_registry.enable()
    resumed = journalled(resume=True)
    snapshot = _pristine_registry.snapshot()
    assert snapshot.counter("sweep.shards") == 0
    # The default grid: 3 thresholds x 13 positive counts.
    assert snapshot.counter("resilience.resume_skips") == 39
    assert resumed == first


def test_interrupted_fig04_journal_counts_runs_not_values(
    tmp_path, _pristine_registry, capsys
):
    """A fig04 cell's ``[0, 5)`` range indexes its five aggregates, so
    ``journal info`` must not report it as 5 runs, and ``sweep.runs``
    counts the runs each resumed cell computed."""
    path = tmp_path / "fig04.journal"
    kwargs = dict(runs=3, thresholds=(2,))

    def journalled(resume):
        journal = ShardJournal(
            path, exp_id="fig04", key="k" * 64, resume=resume, fsync=False
        )
        with resilience.activate(RunContext(journal=journal)):
            return fig04_testbed.run(**kwargs)

    first = journalled(resume=False)
    # Interrupted after 4 of the 13 cells: the header and 4 records.
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 14
    path.write_text("".join(lines[:5]))
    assert experiments_cli.main(["journal", "info", "--journal-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4 shard record(s) over 4 cell(s), 0 quarantined" in out
    assert "run(s)" not in out
    _pristine_registry.enable()
    assert journalled(resume=True) == first
    snapshot = _pristine_registry.snapshot()
    assert snapshot.counter("sweep.shards") == 9
    assert snapshot.counter("sweep.runs") == 9 * 3


def test_calibration_counts_fig04_false_negatives():
    rate, total = measure_false_negative_rate(
        0.3, participants=6, thresholds=(2, 4), runs_per_cell=3, seed=1
    )
    figure = fig04_testbed.run(
        runs=3, seed=1, participants=6, thresholds=(2, 4), p_single=0.3
    )
    assert total == 3 * 7 * 2
    assert figure.notes[0].startswith(
        f"false-negative runs: {round(rate * total)}/{total} "
    )


def test_pool_dispatch_is_largest_population_first(monkeypatch):
    serial = ext_scaling.run(runs=5, jobs=1)
    dispatched = []
    supervised = resilience.run_supervised

    def recording(fn, items, **kwargs):
        dispatched.append([task.n for _, task in items])
        return supervised(fn, items, **kwargs)

    monkeypatch.setattr(resilience, "run_supervised", recording)
    parallel = ext_scaling.run(runs=5, jobs=2)
    assert len(dispatched) == 1
    ns = dispatched[0]
    assert ns == sorted(ns, reverse=True) and ns[0] > ns[-1]
    assert parallel.to_csv() == serial.to_csv()
