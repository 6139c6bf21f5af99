"""Tests for the sweep engine and result containers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import TwoTBins
from repro.experiments.common import ExperimentResult, Series, SweepEngine
from repro.group_testing.model import OnePlusModel
from repro.mac import SequentialOrdering


def one_plus(pop, rng):
    return OnePlusModel(pop, rng)


def two_t_bins(x):
    return TwoTBins()


class TestSeries:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            Series(label="s", xs=(1.0, 2.0), ys=(1.0,))
        with pytest.raises(ValueError):
            Series(label="s", xs=(1.0,), ys=(1.0,), stderr=(0.1, 0.2))

    def test_y_at(self):
        s = Series(label="s", xs=(1.0, 2.0), ys=(10.0, 20.0))
        assert s.y_at(2.0) == 20.0
        with pytest.raises(KeyError):
            s.y_at(3.0)


class TestSweepEngine:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepEngine(10, 2, runs=0, seed=0)

    def test_query_curve_deterministic(self):
        def curve():
            engine = SweepEngine(32, 4, runs=10, seed=42)
            return engine.query_curve(
                "2tBins", [0, 4, 16], two_t_bins, one_plus
            )

        assert curve().ys == curve().ys

    def test_seed_changes_results(self):
        def curve(seed):
            engine = SweepEngine(32, 4, runs=10, seed=seed)
            return engine.query_curve(
                "2tBins", [4], two_t_bins, one_plus
            )

        assert curve(1).ys != curve(2).ys

    def test_exactness_check_catches_wrong_algorithms(self):
        class Liar:
            exact = True

            def decide(self, model, t, rng):
                from repro.core.result import ThresholdResult

                model.query([0])
                return ThresholdResult(
                    decision=True, queries=1, rounds=1, threshold=t
                )

        engine = SweepEngine(16, 8, runs=2, seed=0)
        with pytest.raises(AssertionError, match="wrong answer"):
            engine.query_curve(
                "liar",
                [0],
                lambda x: Liar(),  # tcast-lint: disable=TCL003 -- serial engine; Liar is test-local by design
                one_plus,
            )

    def test_stderr_computed(self):
        engine = SweepEngine(32, 4, runs=20, seed=0)
        s = engine.query_curve("2tBins", [4], two_t_bins, one_plus)
        assert len(s.stderr) == 1
        assert s.stderr[0] >= 0

    def test_baseline_curve(self):
        engine = SweepEngine(32, 4, runs=10, seed=0)
        s = engine.baseline_curve("Seq", [0, 32], SequentialOrdering)
        assert s.y_at(0) == 32 - 4 + 1
        assert s.y_at(32) == 4

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_baseline_curve_checks_exact_decisions(self, vectorize):
        engine = SweepEngine(32, 4, runs=5, seed=0, vectorize=vectorize)
        with pytest.raises(AssertionError, match="wrong answer at x=8"):
            engine.baseline_curve("Seq", [8], _InvertedSequential)


class _InvertedSequential(SequentialOrdering):
    """Claims exact verdicts, but inverts every one of them."""

    def decide(self, population, threshold, rng):
        result = super().decide(population, threshold, rng)
        return replace(result, decision=not result.decision)

    def decide_batch(self, batch):
        out = super().decide_batch(batch)
        return replace(out, decisions=~out.decisions)


class TestModuleLevelWrappers:
    def test_mean_query_curve_wrapper(self):
        from repro.experiments.common import mean_query_curve

        s = mean_query_curve(
            "2tBins",
            [0, 8],
            two_t_bins,
            one_plus,
            n=32,
            threshold=4,
            runs=5,
            seed=1,
        )
        assert s.label == "2tBins"
        assert len(s.ys) == 2

    def test_baseline_curve_wrapper(self):
        from repro.experiments.common import baseline_curve

        s = baseline_curve(
            "Seq",
            [0],
            SequentialOrdering,
            n=32,
            threshold=4,
            runs=5,
            seed=1,
        )
        assert s.y_at(0) == 32 - 4 + 1

    def test_threshold_override_in_query_curve(self):
        engine = SweepEngine(32, 4, runs=5, seed=0)
        low = engine.query_curve(
            "a", [16], two_t_bins, one_plus, threshold=2
        )
        high = engine.query_curve(
            "b", [16], two_t_bins, one_plus, threshold=12
        )
        # x=16 >= both thresholds; higher t needs more evidence.
        assert high.ys[0] > low.ys[0]


class TestExperimentResult:
    def _result(self):
        s1 = Series(label="a", xs=(0.0, 1.0), ys=(1.0, 2.0))
        s2 = Series(label="b", xs=(0.0, 1.0), ys=(3.0, 4.0))
        return ExperimentResult(
            exp_id="figXX",
            title="demo",
            parameters={"n": 4},
            series=(s1, s2),
            notes=("hello",),
        )

    def test_get_series(self):
        r = self._result()
        assert r.get_series("b").ys == (3.0, 4.0)
        with pytest.raises(KeyError):
            r.get_series("c")

    def test_chart_and_table_render(self):
        r = self._result()
        assert "figXX" in r.chart()
        assert "a" in r.table() and "b" in r.table()

    def test_csv(self):
        csv = self._result().to_csv()
        lines = csv.splitlines()
        assert lines[0].endswith("a,b")
        assert lines[1] == "0,1,3"

    def test_report_includes_notes_and_params(self):
        rep = self._result().report()
        assert "note: hello" in rep
        assert "n=4" in rep
