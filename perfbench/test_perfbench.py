"""Tests of the benchmark's own arithmetic, plus a tiny smoke run of
each workload.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import subprocess
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import sweeps  # noqa: E402
from run import JOBS, Report  # noqa: E402
from sweeps import shard_path  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 0.5) == 50
        assert stats.percentile(values, 0.99) == 99
        assert stats.percentile(values, 1.0) == 100
        assert stats.percentile([7.0], 0.99) == 7.0

    def test_order_does_not_matter(self):
        assert stats.percentile([3, 1, 2], 0.5) == 2

    def test_samples_beyond(self):
        assert stats.samples_beyond(1000, 0.99) == 10
        assert stats.samples_beyond(999, 0.99) == 9
        assert stats.samples_beyond(100, 0.5) == 50
        assert stats.samples_beyond(0, 0.99) == 0

    def test_p99_needs_a_thousand_samples(self):
        assert stats.samples_beyond(1000, 0.99) >= stats.MIN_BEYOND
        assert stats.samples_beyond(999, 0.99) < stats.MIN_BEYOND
        assert stats.samples_beyond(20, 0.5) == stats.MIN_BEYOND

    def test_highest_supported(self):
        assert stats.highest_supported(1000) == 0.99
        assert stats.highest_supported(10_000) == 0.999
        assert stats.highest_supported(999) == 0.95
        assert stats.highest_supported(15) is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stats.percentile([], 0.5)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 0.0)


class TestFailFrac:
    def test_fraction(self):
        assert stats.fail_frac(0, 10) == 0.0
        assert stats.fail_frac(3, 12) == 0.25

    def test_nothing_attempted_is_total_failure(self):
        assert stats.fail_frac(0, 0) == 1.0

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            stats.fail_frac(2, 1)
        with pytest.raises(ValueError):
            stats.fail_frac(-1, 1)

    def test_report_counts_checks(self):
        report = Report()
        report.check(True, "a")
        report.check(False, "b")
        report.check(True, "c", counts=False)
        assert (report.attempted, report.failed) == (2, 1)
        assert not report.correct

    def test_uncounted_failed_check_still_invalidates(self):
        report = Report()
        report.attempted = 5
        report.check(False, "reconciliation", counts=False)
        assert report.failed == 0 and not report.correct


class TestHostRecord:
    def test_steal_share_of_cpu_ticks(self, monkeypatch):
        monkeypatch.setattr(run, "cpu_ticks", lambda: (30, 1100))
        assert run.steal_line((10, 100)) == "host: CPU steal 2.0% of CPU time during the run"

    def test_steal_not_measured_without_proc_stat(self, monkeypatch):
        assert run.steal_line(None) == "host: CPU steal not measured"
        monkeypatch.setattr(run, "cpu_ticks", lambda: None)
        assert run.steal_line((10, 100)) == "host: CPU steal not measured"


def span(sid, parent, layer, start, end, **attrs):
    return (sid, parent, layer, layer, start, end, attrs)


class TestSelfTime:
    def test_covered_merges_and_clips(self):
        assert stats.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
        assert stats.covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2)
        assert stats.covered([], 0, 10) == 0

    def test_nested(self):
        spans_ = [
            span(1, 0, "a", 0.0, 10.0),
            span(2, 1, "b", 1.0, 4.0),
            span(3, 2, "c", 2.0, 3.0),
            span(4, 1, "b", 5.0, 6.0),
        ]
        own = stats.self_times(spans_)
        assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
        assert stats.layer_self_times(spans_) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})

    def test_self_times_of_a_tree_sum_to_its_root(self):
        spans_ = [span(1, 0, "a", 0, 8), span(2, 1, "b", 1, 3), span(3, 1, "b", 4, 7),
                  span(4, 3, "c", 5, 6)]
        assert sum(stats.self_times(spans_).values()) == pytest.approx(8)


class TestLedger:
    def test_other_is_the_remainder(self):
        lines, ok = stats.ledger({"a": 3.0, "b": 1.0}, 10.0)
        assert ok
        assert lines["other"] == pytest.approx(6.0)
        assert sum(lines.values()) == pytest.approx(10.0)

    def test_other_always_printed(self):
        lines, ok = stats.ledger({"a": 10.0}, 10.0)
        assert ok and lines["other"] == 0.0

    def test_over_coverage_within_tolerance(self):
        assert stats.ledger({"a": 10.05}, 10.0)[1]
        assert not stats.ledger({"a": 10.2}, 10.0)[1]

    def test_rejects_other_as_a_layer_and_empty_totals(self):
        with pytest.raises(ValueError):
            stats.ledger({"other": 1.0}, 2.0)
        with pytest.raises(ValueError):
            stats.ledger({"a": 1.0}, 0.0)


class TestPartition:
    def test_every_unit_counted_once(self):
        counts, ok = stats.partition(["kernel", "baseline", "kernel"], ("kernel", "baseline"), 3)
        assert ok and counts == {"kernel": 2, "baseline": 1}

    def test_total_mismatch_fails(self):
        assert not stats.partition(["kernel"], ("kernel",), 2)[1]

    def test_unknown_path_fails(self):
        assert not stats.partition(["kernel", "mystery"], ("kernel",), 2)[1]

    def test_shard_classification(self):
        shard = (1, 0, "experiments", "shard", 0, 1, {"baseline": False})
        base = (5, 0, "experiments", "shard", 0, 1, {"baseline": True})
        kernel = (2, 1, "group_testing.vectorized", "decide_batch", 0, 1, {})
        declined = (3, 1, "group_testing.vectorized", "decide_batch", 0, 1,
                    {"error": "UnsupportedBatch"})
        assert shard_path({1: [kernel]}, shard) == "kernel"
        assert shard_path({1: [declined]}, shard) == "scalar_fallback"
        assert shard_path({}, shard) == "scalar_fallback"
        assert shard_path({}, base) == "baseline"


class TestComputeLayers:
    def test_counts_and_times(self):
        spans_ = [
            (1, 0, "group_testing.vectorized", "decide_batch", 0, 4, {"runs": 10, "queries": 55}),
            (2, 1, "sim.fastseed", "states", 1, 2, {}),
            (3, 0, "group_testing.vectorized", "decide_batch", 5, 6,
             {"runs": 3, "error": "UnsupportedBatch"}),
            (4, 0, "core", "decide", 7, 10, {}),
            (5, 4, "core", "decide", 8, 9, {}),
            (6, 4, "sim.rng", "stream", 9, 9.5, {}),
            (7, 0, "mac", "csma", 11, 12, {"slots": 30}),
        ]
        out = stats.compute_layers(spans_)
        assert set(out) == set(stats.COMPUTE_METRICS)
        assert (out["vectorized.calls"], out["vectorized.trials"]) == (2, 13)
        assert (out["vectorized.unsupported"], out["fastseed.degraded"]) == (1, 1)
        assert (out["fastseed.calls"], out["fastseed.states_s"]) == (1, 1)
        assert out["kernel_queries"] == 55
        assert (out["core.decide.calls"], out["core.decide.busy_s"]) == (1, 3)
        assert (out["rng.streams"], out["rng.stream_s"]) == (1, 0.5)
        assert (out["mac.csma.calls"], out["mac.csma.busy_s"], out["mac.slots"]) == (1, 1, 30)
        assert out["mac.tdma.calls"] == 0


class TestMediansOverRepeats:
    """Serve metrics are taken per cycle, sweep throughput and set-up per
    sweep, and reported as the median, so one slow stretch moves one
    repeat only."""

    @staticmethod
    def serve_gen(cycle_latencies):
        records, phases, t = [], [], 0.0
        for latencies in cycle_latencies:
            for name in serving.MEASURED:
                index = len(phases)
                for ms in latencies:
                    records.append([len(records), name, t, t + ms / 1e3, True, 200, [1, 0], [3, 4],
                                    index])
                phases.append({"name": name, "depth": 1, "start": t,
                               "end": t + max(latencies) / 1e3, "sent": len(latencies)})
                t += 10.0
        return {"records": records, "phases": phases, "lags": [0.001], "cpu_s": 1.0,
                "connections": JOBS, "threads": 1}

    def test_serve_metrics_are_medians_over_cycles(self):
        report = Report()
        slow = [float(v) for v in range(100, 200)]
        gen = self.serve_gen([list(range(1, 101)), list(range(2, 102)), slow])
        serving.end_to_end(report, gen, [0.3, 0.5, 0.4])
        m = report.metrics
        assert m["unloaded_p50_ms"] == pytest.approx(51.0)
        assert m["loaded_p99_ms"] == pytest.approx(100.0)
        # Each loaded cycle answers 100 requests of 2 runs over its wall.
        assert m["loaded_qps"] == pytest.approx(100 / 0.101)
        assert m["trials_per_s"] == pytest.approx(200 / 0.101)
        assert m["setup_s"] == pytest.approx(0.4)
        assert "median over 3 cycles" in "\n".join(report.lines)

    def test_sweep_throughput_is_a_median_and_shard_timings_are_pooled(self):
        def sweep(scale, setup):
            shards = [[0.0, 0.002 * scale * k, 0.0, 0.001 * scale * k, 1, True]
                      for k in range(1, 101)]
            return {"start": 0.0, "end": scale, "shards": shards, "setup_s": setup,
                    "series": [{"label": "a", "xs": [1, 2], "ys": [0, 0]}]}

        report = Report()
        sweeps.end_to_end(report, [sweep(1.0, 0.4), sweep(1.2, 0.3), sweep(5.0, 0.9)], runs=10)
        m = report.metrics
        assert m["trials_per_s"] == pytest.approx(20 / 1.2)
        assert m["loaded_qps"] == pytest.approx(100 / 1.2)
        assert m["setup_s"] == pytest.approx(0.4)
        service = [scale * k for scale in (1.0, 1.2, 5.0) for k in range(1, 101)]
        assert m["unloaded_p50_ms"] == pytest.approx(stats.percentile(service, 0.5))
        assert m["loaded_p99_ms"] == pytest.approx(2 * stats.percentile(service, 0.99))
        assert m["unloaded_p50_ms"] != pytest.approx(1.2 * 50)  # not a median of medians


class FakeService:
    """A JSON-lines server answering every query ``ok``; with
    ``use_executor`` it hands each query through the loop's thread pool."""

    def __init__(self, use_executor=False):
        self.use_executor = use_executor

    async def handle(self, reader, writer):
        while line := await reader.readline():
            request = json.loads(line)
            if self.use_executor:
                await asyncio.get_running_loop().run_in_executor(None, int)
            reply = {"id": request["id"], "ok": True, "decisions": [True], "queries": [1],
                     "metrics": {"counters": {"serve.batches": 1}}}
            writer.write((json.dumps(reply) + "\n").encode())
            await writer.drain()
        writer.close()

    def drive(self, plan):
        async def main():
            server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                return await loadgen.run(port, 5, plan)
        return asyncio.run(main())


class TestLoadgen:
    def test_count_phases_and_what_it_opened(self):
        before = threading.active_count()
        out = FakeService().drive([["unloaded", 1, 7], ["loaded", 3, 20]])
        assert [(p["name"], p["sent"]) for p in out["phases"]] == [("unloaded", 7), ("loaded", 20)]
        assert len(out["records"]) == 27 and all(r[4] for r in out["records"])
        assert sorted(r[0] for r in out["records"]) == list(range(27))
        assert [r[8] for r in out["records"]].count(1) == 20
        assert out["connections"] == JOBS
        assert out["threads"] == before
        assert out["counters"] == {"serve.batches": 1}

    def test_threads_started_during_the_run_are_seen(self):
        before = threading.active_count()
        out = FakeService(use_executor=True).drive([["unloaded", 1, 3]])
        assert out["threads"] > before

    def test_same_seed_same_requests(self):
        a = FakeService().drive([["loaded", 4, 30]])
        b = FakeService().drive([["loaded", 4, 30]])
        assert a["requests"] == b["requests"]


class TestTracer:
    def test_parent_links_and_attrs(self):
        tracer = spans.Tracer(enabled=True)

        def inner(x):
            return x + 1

        traced_inner = tracer.wrap("b", "inner", inner, after=lambda r: {"r": r})
        with tracer.span("a", "outer"):
            assert traced_inner(1) == 2
        (child, parent) = tracer.spans
        assert child[1] == parent[0] and parent[1] == 0
        assert child[6] == {"r": 2}
        assert parent[4] <= child[4] <= child[5] <= parent[5]

    def test_error_recorded_and_raised(self):
        tracer = spans.Tracer(enabled=True)

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap("a", "boom", boom)()
        assert tracer.spans[0][6]["error"] == "KeyError"

    def test_counts_summed_over_threads(self):
        tracer = spans.Tracer(enabled=True)

        def work():
            for _ in range(1000):
                tracer.count("k")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert tracer.take_counts() == {"k": 4000}
        assert tracer.counts() == {}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "text": "\n".join(lines[:-1])}


SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_end_to_end_metric_prints_with_its_unit(workload):
    out = _run(workload, 0)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert m["name"] in out["text"]
    assert "fail_frac" in out["text"]


@pytest.mark.parametrize("workload", ["fig01", "serve_mix"])
def test_smoke_traced_run_reports_every_layer_metric(workload):
    out = _run(workload, 1)
    result = out["result"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "path partition" in out["text"] and "ledger" in out["text"]
    assert "tracing overhead" in out["text"]
