"""Scheduler behaviour: coalescing, ordering, drain, failure delivery."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.obs import enable_metrics, get_registry
from repro.serve.client import ServeClient
from repro.serve.executor import (
    INLINE_KERNEL_CELLS,
    INLINE_SCALAR_CELLS,
    execute_group,
)
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


#: Runs that put one n = 64 kernel request above the inline bound, so
#: its group runs on the executor thread and leaves the loop free.
_OFFLOADED_RUNS = INLINE_KERNEL_CELLS // 64 + 1


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
            scheduler = BatchScheduler(ServeConfig(workers=1))
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
            scheduler = BatchScheduler(ServeConfig(workers=1))
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
            scheduler = BatchScheduler(ServeConfig(workers=1, max_batch_runs=5))
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
            scheduler = BatchScheduler(ServeConfig(workers=1, vectorize=vectorize))
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
            scheduler = BatchScheduler(ServeConfig(workers=2))
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
            scheduler = BatchScheduler(ServeConfig(workers=1))
            scheduler.start()
            await scheduler.drain()
            with pytest.raises(RuntimeError, match="draining"):
                scheduler.submit(_request("late"))

        _run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=1))
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
            scheduler = BatchScheduler(ServeConfig(workers=1))
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
            scheduler = BatchScheduler(ServeConfig(workers=1))
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
            scheduler = BatchScheduler(ServeConfig())
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
            scheduler = BatchScheduler(ServeConfig())
            scheduler.start()
            futures = [
                scheduler.submit(_request("lead", seed=99, runs=_OFFLOADED_RUNS))
            ]
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


class TestInlineRoute:
    """A group within the inline bound runs on the event-loop thread, a
    bigger one on the executor thread; both give the oracle's answers."""

    @pytest.mark.parametrize(
        "cells, overrides, vectorize",
        [
            (INLINE_KERNEL_CELLS, {}, True),
            (INLINE_SCALAR_CELLS, {"algorithm": "abns"}, True),
            (INLINE_SCALAR_CELLS, {}, False),
        ],
        ids=["kernel", "abns", "kernel-off"],
    )
    def test_route_follows_the_bound(self, monkeypatch, cells, overrides, vectorize):
        enable_metrics()
        threads = {}
        real = BatchScheduler._execute

        def execute(scheduler, requests):
            threads[requests[0].id] = threading.current_thread()
            return real(scheduler, requests)

        monkeypatch.setattr(BatchScheduler, "_execute", execute)

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(vectorize=vectorize))
            scheduler.start()
            await scheduler.submit(_request("at", runs=cells // 64, **overrides))
            await scheduler.submit(
                _request("over", seed=1, runs=cells // 64 + 1, **overrides)
            )
            await scheduler.drain()
            return threading.current_thread()

        loop_thread = _run(scenario())
        assert threads["at"] is loop_thread
        assert threads["over"].name.startswith("serve-exec")
        snap = get_registry().snapshot()
        assert snap.counter("serve.executor.inline") == 1
        assert snap.counter("serve.executor.offloaded") == 1
        assert snap.counter("serve.batches") == 2

    def test_inline_and_offloaded_answers_equal_the_scalar_oracle(self):
        enable_metrics()
        kernel_over = INLINE_KERNEL_CELLS // 64 // 2 + 1
        scalar_over = INLINE_SCALAR_CELLS // 64 // 2 + 1
        # One group per coalesce key: kernel and scalar, each within and
        # above its bound.
        requests = (
            [_request(f"k{i}", seed=i, runs=4) for i in range(4)]
            + [_request(f"K{i}", seed=10 + i, runs=kernel_over, threshold=9)
               for i in range(2)]
            + [_request(f"s{i}", seed=20 + i, runs=3, algorithm="abns")
               for i in range(3)]
            + [_request(f"S{i}", seed=30 + i, runs=scalar_over, threshold=9,
                        algorithm="abns") for i in range(2)]
        )

        async def scenario():
            scheduler = BatchScheduler(ServeConfig())
            futures = [scheduler.submit(r) for r in requests]
            scheduler.start()
            outcomes = await asyncio.gather(*futures)
            await scheduler.drain()
            return outcomes

        outcomes = _run(scenario())
        snap = get_registry().snapshot()
        assert snap.counter("serve.executor.inline") == 2
        assert snap.counter("serve.executor.offloaded") == 2
        assert snap.counter("serve.batches") == 4
        for request, outcome in zip(requests, outcomes):
            [expected] = execute_group([request], vectorize=False)
            assert outcome.decisions == expected.decisions
            assert outcome.queries == expected.queries

    def test_ping_is_answered_between_queued_inline_groups(self):
        # 60 single-request groups (one threshold each) arrive in one
        # write, so all of them queue before the first runs.  The loop
        # yields after every inline group, so a ping sent once the first
        # answer is back is read and answered before the last.
        lines = b"".join(
            json.dumps(
                {"op": "query", "id": f"q{i}", "tenant": "t", "n": 64, "x": 20,
                 "threshold": 1 + i, "runs": 16, "seed": i}
            ).encode() + b"\n"
            for i in range(60)
        )
        with serve_in_thread(ServeConfig()) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
                replies = sock.makefile("rb")
                sock.sendall(lines)
                order = [json.loads(replies.readline())["id"]]
                sock.sendall(b'{"op": "ping", "id": "ping"}\n')
                while len(order) <= 60:
                    order.append(json.loads(replies.readline())["id"])
                sock.sendall(b'{"op": "metrics", "id": "m"}\n')
                counters = json.loads(replies.readline())["metrics"]["counters"]
                replies.close()
        assert sorted(order) == sorted([f"q{i}" for i in range(60)] + ["ping"])
        assert order[-1] != "ping"
        assert counters["serve.batches"] == 60
        assert counters["serve.executor.inline"] == 60
        assert counters.get("serve.executor.offloaded", 0) == 0
