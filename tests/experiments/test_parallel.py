"""Parallel sweeps must be bit-identical to serial execution.

The sweep engine derives every trial's randomness statelessly from
``(seed, label, x, run)``, so sharding the runs across worker processes
cannot change any number.  These tests pin that contract on the raw
engine and on whole figure runners (fig01's multi-x curves, fig03's
single-x-per-engine shape) at reduced trial counts.
"""

from __future__ import annotations

import logging
import os
import pickle
import warnings

import pytest

from repro.api import algorithm_factory
from repro.experiments import (
    fig01_one_plus,
    fig03_threshold_sweep,
    fig09_accuracy,
    fig10_repeats,
)
from repro.experiments.common import (
    Curve,
    SweepEngine,
    resolve_jobs,
    shutdown_executors,
)
from repro.group_testing.model import ModelSpec
from repro.mac import CsmaBaseline

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module", autouse=True)
def _fake_multicore():
    """Pretend the host has >= 4 CPUs.

    ``resolve_jobs`` clamps explicit ``jobs`` to the CPU count; on a
    single-core runner that would silently downgrade every parallel test
    here to the serial path.  Faking the count keeps the process-pool
    code genuinely exercised everywhere (the pool itself runs fine on
    one core -- it is merely slower).
    """
    real = os.cpu_count
    mp = pytest.MonkeyPatch()
    mp.setattr(os, "cpu_count", lambda: max(4, real() or 1))
    yield
    mp.undo()


@pytest.fixture(scope="module", autouse=True)
def _reap_executors():
    yield
    shutdown_executors()


def _engine(jobs):
    return SweepEngine(64, 8, runs=12, seed=77, jobs=jobs)


class TestEngineIdentity:
    def test_query_curve_matches_serial(self):
        factory = algorithm_factory("2tbins")
        spec = ModelSpec(kind="1+", max_queries=64 * 50)
        xs = [0, 4, 8, 16]
        serial = _engine(1).query_curve("2tBins", xs, factory, spec)
        parallel = _engine(2).query_curve("2tBins", xs, factory, spec)
        assert serial == parallel

    def test_baseline_curve_matches_serial(self):
        xs = [0, 4, 8, 16]
        serial = _engine(1).baseline_curve("CSMA", xs, CsmaBaseline)
        parallel = _engine(2).baseline_curve("CSMA", xs, CsmaBaseline)
        assert serial == parallel

    def test_single_x_curve_still_shards(self):
        """A one-cell curve is one whole-cell shard at any ``jobs`` and
        matches serial (fig03 and ext_scaling batch many such curves)."""
        factory = algorithm_factory("2tbins")
        spec = ModelSpec(kind="1+", max_queries=64 * 50)
        serial = _engine(1).query_curve("one-x", [8], factory, spec)
        parallel = _engine(4).query_curve("one-x", [8], factory, spec)
        assert serial == parallel

    def test_unpicklable_factory_falls_back_to_serial(self):
        spec = ModelSpec(kind="1+", max_queries=64 * 50)
        local = algorithm_factory("2tbins")
        closure = lambda x: local(x)  # noqa: E731 - deliberately unpicklable
        with pytest.raises(Exception):
            pickle.dumps(closure)
        with pytest.warns(RuntimeWarning, match="serial"):
            curve = _engine(2).query_curve("closure", [0, 8], closure, spec)  # tcast-lint: disable=TCL003 -- the fallback under test
        assert curve == _engine(1).query_curve("closure", [0, 8], closure, spec)  # tcast-lint: disable=TCL003 -- the fallback under test

    def test_unpicklable_factory_in_a_later_curve_falls_back_to_serial(self):
        """One batch mixes curves, so the pickle check covers every
        task, not only the first."""
        spec = ModelSpec(kind="1+", max_queries=64 * 50)
        local = algorithm_factory("2tbins")
        closure = lambda x: local(x)  # noqa: E731 - deliberately unpicklable
        curves = [
            Curve("plain", [0, 8], local, spec),
            Curve("closure", [0, 8], closure, spec),  # tcast-lint: disable=TCL003 -- the fallback under test
        ]
        with pytest.warns(RuntimeWarning, match="serial"):
            mixed = _engine(2).curves(curves)
        assert mixed == _engine(1).curves(curves)


class TestFigureIdentity:
    def test_fig01_parallel_identical(self):
        serial = fig01_one_plus.run(runs=10, jobs=1)
        parallel = fig01_one_plus.run(runs=10, jobs=2)
        assert serial.series == parallel.series
        assert serial.to_csv() == parallel.to_csv()

    def test_fig03_parallel_identical(self):
        serial = fig03_threshold_sweep.run(runs=10, jobs=1)
        parallel = fig03_threshold_sweep.run(runs=10, jobs=2)
        assert serial.series == parallel.series
        assert serial.to_csv() == parallel.to_csv()

    @pytest.mark.parametrize(
        "figure", [fig09_accuracy, fig10_repeats], ids=["fig09", "fig10"]
    )
    def test_whole_cell_figure_parallel_identical(self, figure):
        """fig09/fig10 run their cells as shards on the supervised runner."""
        serial = figure.run(runs=10, jobs=1)
        parallel = figure.run(runs=10, jobs=2)
        # fig10's unreachable cells are nan, which never compares equal;
        # float reprs round-trip exactly, so equal reprs are equal bits.
        assert repr(serial.series) == repr(parallel.series)
        assert serial.to_csv() == parallel.to_csv()


class TestResolveJobs:
    def test_default_is_cpu_count(self):
        expected = os.cpu_count() or 1
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == expected

    def test_explicit_passthrough(self):
        # The module fixture fakes >= 4 CPUs, so 3 is within budget.
        assert resolve_jobs(3) == 3

    def test_clamped_to_cpu_count(self, caplog):
        cpus = os.cpu_count() or 1
        with caplog.at_level(logging.WARNING, logger="repro.experiments.common"):
            assert resolve_jobs(cpus + 61) == cpus
        assert any("clamping" in r.message for r in caplog.records)

    def test_clamp_applies_to_engine(self):
        cpus = os.cpu_count() or 1
        engine = SweepEngine(16, 2, runs=2, seed=0, jobs=cpus + 7)
        assert engine.jobs == cpus

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
