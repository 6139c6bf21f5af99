"""Metrics must observe without perturbing: identical bytes, exact merges.

The observability layer's whole contract is that turning it on changes
*measurements*, never *results*.  These tests pin that contract on real
figure runs (serial and process-pool parallel), check that worker
snapshots merge into exactly the serial totals, reconcile the
model-layer query counters against the figure's own mean-cost curves,
and exercise the ``--metrics out.json`` CLI surface.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.experiments import cli, fig01_one_plus, fig09_accuracy, fig10_repeats
from repro.experiments.common import shutdown_executors
from repro.obs import get_registry
from repro.workloads.scenarios import x_sweep

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

RUNS = 6


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


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Every test starts and ends with a disabled, zeroed registry."""
    registry = get_registry()
    registry.disable()
    registry.reset()
    yield registry
    registry.disable()
    registry.reset()


def _fig01(jobs):
    return fig01_one_plus.run(runs=RUNS, jobs=jobs)


class TestBitExactness:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_enabling_metrics_never_changes_the_csv(self, jobs):
        registry = get_registry()
        baseline = _fig01(jobs)
        registry.enable()
        instrumented = _fig01(jobs)
        assert registry.snapshot().counter("model.queries") > 0
        assert instrumented.series == baseline.series
        assert instrumented.to_csv() == baseline.to_csv()


class TestCrossProcessMerge:
    def test_parallel_snapshot_equals_serial_snapshot(self):
        registry = get_registry()
        registry.enable()

        _fig01(1)
        serial = registry.snapshot()
        registry.reset()
        _fig01(2)
        parallel = registry.snapshot()

        # Model- and fault-layer totals are workload properties: sharding
        # the trials over worker processes must not change a single count.
        for name in (
            "model.queries",
            "model.verdict.silent",
            "model.verdict.activity",
            "sweep.runs",
        ):
            assert parallel.counter(name) == serial.counter(name), name
        assert (
            parallel.histograms["model.bin_size"].counts
            == serial.histograms["model.bin_size"].counts
        )
        # The parallel run really took the pool path.
        assert parallel.counter("sweep.parallel_batches") > 0
        assert serial.counter("sweep.parallel_batches") == 0


class TestWholeCellFigureMerge:
    @pytest.mark.parametrize(
        "figure", [fig09_accuracy, fig10_repeats], ids=["fig09", "fig10"]
    )
    def test_parallel_model_counters_equal_serial(self, figure):
        """fig09/fig10 cells run on the supervised runner, so their
        workers' counters merge back like an engine sweep's."""
        registry = get_registry()
        registry.enable()

        figure.run(runs=RUNS, jobs=1)
        serial = registry.snapshot()
        registry.reset()
        figure.run(runs=RUNS, jobs=2)
        parallel = registry.snapshot()

        def model(snapshot):
            return {
                k: v for k, v in snapshot.counters.items()
                if k.startswith("model.")
            }

        assert model(serial).get("model.queries", 0) > 0
        assert model(parallel) == model(serial)
        assert parallel.counter("sweep.shards") == serial.counter("sweep.shards")
        assert parallel.counter("sweep.parallel_batches") == 1


class TestBaselinePathCounters:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig01_baseline_shards_take_the_batch_path(self, jobs):
        registry = get_registry()
        registry.enable()
        _fig01(jobs)
        snapshot = registry.snapshot()

        # CSMA and Sequential: one shard per grid point at this run count.
        baseline_shards = 2 * len(x_sweep(fig01_one_plus.DEFAULT_N))
        batched = snapshot.counter("sweep.baseline_vectorized_shards")
        fallback = snapshot.counter("sweep.baseline_fallback")
        assert batched + fallback == baseline_shards
        assert batched == baseline_shards
        # The query-curve pair still counts query-curve shards only, and
        # the four path counters partition the shards.
        query_shards = snapshot.counter("sweep.vectorized_shards") + snapshot.counter(
            "sweep.vectorized_fallback"
        )
        assert query_shards + baseline_shards == snapshot.counter("sweep.shards")


class TestReconciliation:
    def test_query_counter_matches_fig01_mean_cost_curves(self):
        registry = get_registry()
        registry.enable()
        result = _fig01(1)
        snapshot = registry.snapshot()

        # The two model-backed curves (the baselines never construct a
        # QueryModel) plot mean queries per trial; mean * runs summed
        # over the grid must equal the layer's own query counter.
        expected = 0.0
        for label in ("2tBins", "ExpIncrease"):
            expected += sum(y * RUNS for y in result.get_series(label).ys)
        assert snapshot.counter("model.queries") == pytest.approx(expected)


class TestCliMetricsFlag:
    def test_run_writes_snapshot_json_and_identical_csv(self, tmp_path):
        plain = tmp_path / "plain"
        metered = tmp_path / "metered"
        metrics_path = tmp_path / "m.json"
        common = ["--runs", str(RUNS), "--no-cache", "--jobs", "2"]

        assert cli.main(
            ["run", "fig01", *common, "--out", str(plain)]
        ) == 0
        assert cli.main(
            [
                "run",
                "fig01",
                *common,
                "--out",
                str(metered),
                "--metrics",
                str(metrics_path),
            ]
        ) == 0

        payload = json.loads(metrics_path.read_text())
        assert payload["counters"]["model.queries"] > 0
        assert payload["counters"]["sweep.parallel_batches"] >= 1
        assert "model.bin_size" in payload["histograms"]
        assert (metered / "fig01.csv").read_text() == (
            plain / "fig01.csv"
        ).read_text()

    def test_flag_leaves_registry_disarmed(self, tmp_path):
        metrics_path = tmp_path / "m.json"
        assert cli.main(
            [
                "run",
                "fig01",
                "--runs",
                "2",
                "--no-cache",
                "--metrics",
                str(metrics_path),
            ]
        ) == 0
        registry = get_registry()
        assert not registry.enabled
        assert registry.snapshot().counter("model.queries") == 0
        assert metrics_path.exists()
