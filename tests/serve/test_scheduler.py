"""Scheduler behaviour: coalescing, ordering, drain, failure delivery."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.obs import enable_metrics, get_registry
from repro.serve.client import ServeClient
from repro.serve.request import QueryRequest
from repro.serve.scheduler import BatchScheduler
from repro.serve.server import ServeConfig, serve_in_thread


def _request(rid: str, *, seed: int = 0, runs: int = 2, **overrides) -> QueryRequest:
    fields = {
        "id": rid,
        "tenant": "t",
        "n": 64,
        "x": 20,
        "threshold": 8,
        "runs": runs,
        "seed": seed,
    }
    fields.update(overrides)
    return QueryRequest(**fields)


def _run(coro):
    """Run one scheduler scenario on a fresh event loop."""
    return asyncio.run(coro)


class TestCoalescing:
    def test_queued_compatible_requests_share_one_batch(self):
        """Enqueue before start: the first claim must sweep the queue."""
        enable_metrics()
        reg = get_registry()
        batches_before = reg.snapshot().counter("serve.batches")

        async def scenario():
            scheduler = BatchScheduler(workers=1)
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i)) for i in range(5)
            ]
            scheduler.start()
            outcomes = await asyncio.gather(*futures)
            await scheduler.drain()
            return outcomes

        outcomes = _run(scenario())
        assert all(o.batched for o in outcomes)
        assert reg.snapshot().counter("serve.batches") - batches_before == 1

    def test_incompatible_requests_split_batches(self):
        enable_metrics()
        reg = get_registry()
        batches_before = reg.snapshot().counter("serve.batches")

        async def scenario():
            scheduler = BatchScheduler(workers=1)
            futures = [
                scheduler.submit(_request("a1", seed=1)),
                scheduler.submit(_request("b1", seed=2, threshold=9)),
                scheduler.submit(_request("a2", seed=3)),
            ]
            scheduler.start()
            outcomes = await asyncio.gather(*futures)
            await scheduler.drain()
            return outcomes

        outcomes = _run(scenario())
        assert len(outcomes) == 3
        # Two distinct coalesce keys -> exactly two executed batches,
        # with a1/a2 sharing one despite b1 sitting between them.
        assert reg.snapshot().counter("serve.batches") - batches_before == 2

    def test_max_batch_runs_caps_a_group(self):
        enable_metrics()
        reg = get_registry()
        batches_before = reg.snapshot().counter("serve.batches")

        async def scenario():
            scheduler = BatchScheduler(workers=1, max_batch_runs=5)
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i, runs=3))
                for i in range(3)
            ]
            scheduler.start()
            outcomes = await asyncio.gather(*futures)
            await scheduler.drain()
            return outcomes

        _run(scenario())
        # 3 + 3 + 3 runs under a 5-run cap: no single batch may hold
        # more than one 3-run request's sibling -> at least two batches.
        assert reg.snapshot().counter("serve.batches") - batches_before >= 2

    def test_coalesced_answers_match_scalar_oracle(self):
        async def scenario(vectorize):
            scheduler = BatchScheduler(workers=1, vectorize=vectorize)
            futures = [
                scheduler.submit(_request(f"q{i}", seed=10 + i, runs=3))
                for i in range(4)
            ]
            scheduler.start()
            outcomes = await asyncio.gather(*futures)
            await scheduler.drain()
            return outcomes

        fast = _run(scenario(True))
        oracle = _run(scenario(False))
        for got, want in zip(fast, oracle):
            assert got.decisions == want.decisions
            assert got.queries == want.queries


class TestLifecycle:
    def test_drain_finishes_queued_work(self):
        async def scenario():
            scheduler = BatchScheduler(workers=2)
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i)) for i in range(6)
            ]
            scheduler.start()
            await scheduler.drain()
            return futures

        futures = _run(scenario())
        assert all(f.done() and f.exception() is None for f in futures)

    def test_submit_after_drain_fails_fast(self):
        async def scenario():
            scheduler = BatchScheduler(workers=1)
            scheduler.start()
            await scheduler.drain()
            with pytest.raises(RuntimeError, match="draining"):
                scheduler.submit(_request("late"))

        _run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            scheduler = BatchScheduler(workers=1)
            scheduler.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    scheduler.start()
            finally:
                await scheduler.drain()

        _run(scenario())

    def test_latency_histogram_observes_each_request(self):
        enable_metrics()
        reg = get_registry()

        async def scenario():
            scheduler = BatchScheduler(workers=1)
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i)) for i in range(3)
            ]
            scheduler.start()
            await asyncio.gather(*futures)
            await scheduler.drain()

        before = reg.snapshot().histograms.get("serve.latency_ms")
        count_before = before.total if before is not None else 0
        _run(scenario())
        after = reg.snapshot().histograms["serve.latency_ms"]
        assert after.total - count_before == 3


class TestFailureDelivery:
    def test_executor_exception_reaches_every_future(self, monkeypatch):
        from repro.serve import scheduler as scheduler_mod

        def _boom(requests, *, vectorize):
            raise RuntimeError("executor exploded")

        monkeypatch.setattr(scheduler_mod, "execute_group", _boom)

        async def scenario():
            scheduler = BatchScheduler(workers=1)
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i)) for i in range(3)
            ]
            scheduler.start()
            results = await asyncio.gather(*futures, return_exceptions=True)
            await scheduler.drain()
            return results

        results = _run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)


class _Lanes:
    """Wraps ``BatchScheduler._execute``: records each group's request
    ids and the most groups ever executing at once.  A group led by a
    request in ``hold`` blocks until :attr:`release` is set."""

    def __init__(self, monkeypatch, *, hold=(), dwell=0.02):
        self.groups = []
        self.peak = 0
        self.started = threading.Event()
        self.release = threading.Event()
        self._inflight = 0
        self._lock = threading.Lock()
        real = BatchScheduler._execute

        def execute(scheduler, requests):
            with self._lock:
                self._inflight += 1
                self.peak = max(self.peak, self._inflight)
                self.groups.append([r.id for r in requests])
            try:
                if requests[0].id in hold:
                    self.started.set()
                    assert self.release.wait(10.0)
                # Long enough for a second lane to claim a group.
                time.sleep(dwell)
                return real(scheduler, requests)
            finally:
                with self._lock:
                    self._inflight -= 1

        monkeypatch.setattr(BatchScheduler, "_execute", execute)


class TestDefaultLane:
    """One executor lane by default: groups run back to back, and a
    claim takes everything that queued behind the previous group."""

    def test_mixed_burst_never_overlaps(self, monkeypatch):
        lanes = _Lanes(monkeypatch)

        async def scenario():
            scheduler = BatchScheduler()
            scheduler.start()
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i, threshold=8 + i % 4))
                for i in range(12)
            ]
            outcomes = await asyncio.gather(*futures)
            await scheduler.drain()
            return outcomes

        assert len(_run(scenario())) == 12
        assert len(lanes.groups) == 4
        assert lanes.peak == 1

    def test_mixed_burst_never_overlaps_in_the_default_service(self, monkeypatch):
        lanes = _Lanes(monkeypatch)
        wires = [
            {"op": "query", "id": f"q{i}", "tenant": "t", "n": 64, "x": 20,
             "threshold": 8 + i % 4, "runs": 2, "seed": i}
            for i in range(12)
        ]
        with serve_in_thread(ServeConfig()) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                for wire in wires:
                    client.send(wire)
                replies = [client.recv() for _ in wires]
        assert all(reply["ok"] for reply in replies)
        assert len(lanes.groups) >= 4
        assert lanes.peak == 1

    def test_requests_queued_behind_a_busy_lane_form_one_group(self, monkeypatch):
        lanes = _Lanes(monkeypatch, hold=("lead",), dwell=0.0)

        async def scenario():
            scheduler = BatchScheduler()
            scheduler.start()
            futures = [scheduler.submit(_request("lead", seed=99))]
            assert await asyncio.to_thread(lanes.started.wait, 10.0)
            for i in range(5):
                futures.append(scheduler.submit(_request(f"b{i}", seed=i)))
                # An idle lane would claim each follower on its own.
                await asyncio.sleep(0.01)
            lanes.release.set()
            outcomes = await asyncio.gather(*futures)
            await scheduler.drain()
            return outcomes

        outcomes = _run(scenario())
        assert lanes.groups == [["lead"], [f"b{i}" for i in range(5)]]
        assert all(o.batched for o in outcomes[1:])
