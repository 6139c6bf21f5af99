"""Serve-layer resilience: deadlines, supervision, CoDel, client retries."""

from __future__ import annotations

import socket
import threading

import asyncio

import numpy as np
import pytest

from repro.obs import enable_metrics, get_registry
from repro.serve import scheduler as scheduler_mod
from repro.serve.client import (
    CircuitOpenError,
    ClientRetryPolicy,
    RetriesExhausted,
    RetryingServeClient,
    ServeClient,
)
from repro.serve.errors import CodelShed, DeadlineExceeded, QueryExecutionError
from repro.serve.executor import INLINE_KERNEL_CELLS, execute_group
from repro.serve.request import QueryRequest, RequestError
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


def _query(rid: str, *, seed: int = 0, runs: int = 2, **overrides) -> dict:
    payload = {
        "op": "query",
        "id": rid,
        "tenant": "t",
        "n": 64,
        "x": 20,
        "threshold": 8,
        "runs": runs,
        "seed": seed,
    }
    payload.update(overrides)
    return payload


#: Runs that put one n = 64 kernel request above the inline bound, so
#: its group runs on the executor thread and leaves the loop free.
_OFFLOADED_RUNS = INLINE_KERNEL_CELLS // 64 + 1


class _FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        current = self.now
        self.now += self.step
        return current


class TestDeadlineWire:
    def test_from_wire_parses_deadline(self):
        request = QueryRequest.from_wire(_query("q1", deadline_ms=250))
        assert request.deadline_ms == 250

    def test_from_wire_defaults_to_no_deadline(self):
        assert QueryRequest.from_wire(_query("q1")).deadline_ms is None

    @pytest.mark.parametrize("bad", [True, 1.5, "100", [100]])
    def test_from_wire_rejects_non_int_deadline(self, bad):
        with pytest.raises(RequestError):
            QueryRequest.from_wire(_query("q1", deadline_ms=bad))

    def test_from_wire_allows_expired_deadline(self):
        # Non-positive budgets are valid on the wire: admission answers
        # them with a 504-style shed, not a 400 validation error.
        assert QueryRequest.from_wire(_query("q1", deadline_ms=0)).deadline_ms == 0
        assert QueryRequest.from_wire(_query("q1", deadline_ms=-5)).deadline_ms == -5

    def test_deadline_does_not_affect_coalesce_key(self):
        a = QueryRequest.from_wire(_query("q1", deadline_ms=100))
        b = QueryRequest.from_wire(_query("q2"))
        assert a.coalesce_key == b.coalesce_key


class TestDeadlineService:
    def test_expired_on_arrival_rejected_504(self):
        enable_metrics()
        reg = get_registry()
        with serve_in_thread(ServeConfig(port=0, workers=1)) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                reply = client.request(_query("q1", deadline_ms=0))
                metrics = client.request({"op": "metrics"})["metrics"]
        assert not reply["ok"]
        assert reply["status"] == 504
        assert reply["error"]["code"] == "deadline"
        # The counter reconciles with the one injected expiry, both in
        # the live endpoint and the in-process registry.
        assert metrics["counters"]["serve.rejected.deadline"] == 1
        assert reg.snapshot().counter("serve.rejected.deadline") == 1

    def test_healthy_deadline_answers_normally(self):
        with serve_in_thread(ServeConfig(port=0, workers=1)) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                reply = client.query(_query("q1", seed=7), deadline_ms=30_000)
        assert reply["ok"] and reply["status"] == 200
        [expected] = execute_group(
            [QueryRequest.from_wire(_query("q1", seed=7))], vectorize=False
        )
        assert tuple(reply["decisions"]) == expected.decisions


class TestDeadlineScheduler:
    def test_expiry_in_queue_fails_504_with_stage(self):
        enable_metrics()
        reg = get_registry()
        clock = _FakeClock()

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=1), clock=clock)
            future = scheduler.submit(_request("q1", deadline_ms=10))
            clock.now = 1.0  # the 10ms budget is long gone
            scheduler.start()
            with pytest.raises(DeadlineExceeded) as err:
                await future
            await scheduler.drain()
            return err.value

        exc = asyncio.run(scenario())
        assert exc.status == 504 and exc.code == "deadline_exceeded"
        assert exc.stage == "queued"
        snap = reg.snapshot()
        assert snap.counter("serve.expired.queued") == 1
        assert snap.counter("serve.failed") == 1

    def test_expiry_at_execution_hop_fails_504(self):
        # A stepping clock: alive at the claim sweep (t=1.0), dead at
        # the pre-execution re-check (t=2.0).
        enable_metrics()
        reg = get_registry()
        clock = _FakeClock(step=1.0)

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=1), clock=clock)
            future = scheduler.submit(_request("q1", deadline_ms=1500))
            scheduler.start()
            with pytest.raises(DeadlineExceeded) as err:
                await future
            await scheduler.drain()
            return err.value

        exc = asyncio.run(scenario())
        assert exc.stage == "executing"
        assert reg.snapshot().counter("serve.expired.executing") == 1

    def test_queued_request_expires_while_the_lane_is_busy(self, monkeypatch):
        # The one lane holds a group above the inline bound inside
        # _execute; a request queued behind it gets its 504 on the next
        # watchdog tick, not when the lane next claims.
        enable_metrics()
        reg = get_registry()
        clock = _FakeClock()
        entered = threading.Event()
        release = threading.Event()
        real = BatchScheduler._execute

        def held(self, requests):
            entered.set()
            release.wait(timeout=60)
            return real(self, requests)

        monkeypatch.setattr(BatchScheduler, "_execute", held)

        async def scenario():
            scheduler = BatchScheduler(
                ServeConfig(workers=1, codel_interval_ms=10.0), clock=clock
            )
            scheduler.start()
            busy = scheduler.submit(_request("busy", runs=_OFFLOADED_RUNS))
            while not entered.is_set():
                await asyncio.sleep(0.001)
            late = scheduler.submit(
                _request("late", seed=1, threshold=9, deadline_ms=50)
            )
            clock.now = 1.0  # the 50ms budget is long gone
            try:
                with pytest.raises(DeadlineExceeded) as err:
                    await asyncio.wait_for(late, timeout=5.0)
                held_throughout = not busy.done()
            finally:
                release.set()
            outcome = await busy
            await scheduler.drain()
            return err.value, held_throughout, outcome

        exc, held_throughout, outcome = asyncio.run(scenario())
        assert exc.stage == "queued"
        assert held_throughout
        assert reg.snapshot().counter("serve.expired.queued") == 1
        [expected] = execute_group(
            [_request("busy", runs=_OFFLOADED_RUNS)], vectorize=False
        )
        assert outcome.decisions == expected.decisions

    def test_expired_entry_does_not_poison_siblings(self):
        enable_metrics()
        clock = _FakeClock()

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=1), clock=clock)
            doomed = scheduler.submit(_request("dead", deadline_ms=10))
            alive = scheduler.submit(_request("live", seed=3))
            clock.now = 1.0
            scheduler.start()
            with pytest.raises(DeadlineExceeded):
                await doomed
            outcome = await alive
            await scheduler.drain()
            return outcome

        outcome = asyncio.run(scenario())
        [expected] = execute_group([_request("live", seed=3)], vectorize=False)
        assert outcome.decisions == expected.decisions


class TestSupervision:
    def test_worker_respawns_after_executor_crash(self, monkeypatch):
        enable_metrics()
        reg = get_registry()
        calls = {"n": 0}
        real = execute_group

        def flaky(requests, *, vectorize):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("executor crashed")
            return real(requests, vectorize=vectorize)

        monkeypatch.setattr(scheduler_mod, "execute_group", flaky)

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=1))
            scheduler.start()
            with pytest.raises(QueryExecutionError):
                await scheduler.submit(_request("q1"))
            # The lane that failed the group must serve the next query.
            outcome = await scheduler.submit(_request("q2", seed=5))
            await scheduler.drain()
            return outcome

        outcome = asyncio.run(scenario())
        [expected] = execute_group([_request("q2", seed=5)], vectorize=False)
        assert outcome.decisions == expected.decisions
        assert reg.snapshot().counter("serve.failed") == 1

    def test_the_lane_that_failed_a_group_answers_the_next(self, monkeypatch):
        # The failed group is failed inside the lane's own task: no lane
        # task ends and none is created, and that same task runs the
        # next group.
        ran_on = []
        real = BatchScheduler._execute

        def flaky(self, requests):
            ran_on.append(asyncio.current_task())
            if len(ran_on) == 1:
                raise RuntimeError("executor crashed")
            return real(self, requests)

        monkeypatch.setattr(BatchScheduler, "_execute", flaky)

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=1))
            scheduler.start()
            tasks_before = asyncio.all_tasks()
            with pytest.raises(QueryExecutionError):
                await asyncio.wait_for(scheduler.submit(_request("q1")), 10.0)
            outcome = await asyncio.wait_for(
                scheduler.submit(_request("q2", seed=5)), 10.0
            )
            tasks_after = asyncio.all_tasks()
            await scheduler.drain()
            return tasks_before, tasks_after, outcome

        tasks_before, tasks_after, outcome = asyncio.run(scenario())
        assert tasks_after == tasks_before
        assert len(ran_on) == 2 and ran_on[0] is ran_on[1]
        assert ran_on[0] in tasks_before
        [expected] = execute_group([_request("q2", seed=5)], vectorize=False)
        assert outcome.decisions == expected.decisions

    def test_group_failure_blames_failing_request(self):
        # Three coalesced members; the scalar path fails on the first
        # (unknown algorithm).  Every member must get an error naming
        # the culprit, and serve.failed counts per member.
        enable_metrics()
        reg = get_registry()

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=1, vectorize=False))
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i, algorithm="nope"))
                for i in range(3)
            ]
            scheduler.start()
            results = await asyncio.gather(*futures, return_exceptions=True)
            await scheduler.drain()
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(r, QueryExecutionError) for r in results)
        # The culprit carries its own id; siblings name it in their message.
        assert results[0].request_id == "q0"
        for i, result in enumerate(results):
            assert result.request_id == f"q{i}"
            assert "q0" in str(result)
        snap = reg.snapshot()
        assert snap.counter("serve.failed") == 3

    def test_crash_mid_drain_still_terminates(self, monkeypatch):
        def exploding(requests, *, vectorize):
            raise RuntimeError("always down")

        monkeypatch.setattr(scheduler_mod, "execute_group", exploding)

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(workers=2))
            futures = [
                scheduler.submit(_request(f"q{i}", seed=i, threshold=8 + i))
                for i in range(4)
            ]
            scheduler.start()
            results = await asyncio.gather(*futures, return_exceptions=True)
            await scheduler.drain()
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(r, QueryExecutionError) for r in results)

    def test_service_survives_executor_crash_end_to_end(self, monkeypatch):
        calls = {"n": 0}
        real = execute_group

        def flaky(requests, *, vectorize):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("executor crashed")
            return real(requests, vectorize=vectorize)

        monkeypatch.setattr(scheduler_mod, "execute_group", flaky)
        with serve_in_thread(ServeConfig(port=0, workers=1)) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                first = client.request(_query("q1"))
                second = client.request(_query("q2", seed=5))
        assert not first["ok"]
        assert first["status"] == 500
        assert first["error"]["code"] == "execution_failed"
        assert second["ok"] and second["status"] == 200


class TestCodel:
    def test_sheds_from_front_until_p50_under_target(self):
        enable_metrics()
        reg = get_registry()
        clock = _FakeClock()

        async def scenario():
            scheduler = BatchScheduler(
                ServeConfig(workers=1, codel_target_ms=100.0), clock=clock
            )
            old = [scheduler.submit(_request(f"old{i}", seed=i)) for i in range(2)]
            clock.now = 0.09
            young = [
                scheduler.submit(_request(f"new{i}", seed=i, threshold=9))
                for i in range(2)
            ]
            clock.now = 0.15  # waits: old=150ms, young=60ms -> p50 over
            shed = scheduler._codel_tick()
            scheduler.start()
            results = await asyncio.gather(
                *old, *young, return_exceptions=True
            )
            await scheduler.drain()
            return shed, results

        shed, results = asyncio.run(scenario())
        # Dropping the single oldest entry brings the median back under
        # target; everything younger still gets served.
        assert shed == 1
        assert isinstance(results[0], CodelShed)
        assert results[0].status == 429 and results[0].code == "codel"
        assert all(not isinstance(r, Exception) for r in results[1:])
        snap = reg.snapshot()
        assert snap.counter("serve.rejected.codel") == 1

    def test_quiet_queue_sheds_nothing(self):
        clock = _FakeClock()

        async def scenario():
            scheduler = BatchScheduler(
                ServeConfig(workers=1, codel_target_ms=100.0), clock=clock
            )
            futures = [scheduler.submit(_request(f"q{i}")) for i in range(3)]
            clock.now = 0.05  # everyone waited 50ms: under target
            shed = scheduler._codel_tick()
            scheduler.start()
            await asyncio.gather(*futures)
            await scheduler.drain()
            return shed

        assert asyncio.run(scenario()) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_sheds_exactly_what_resorting_every_wait_sheds(self, seed):
        # Random deep queues (equal stamps included), each ticked at a
        # target that sheds none of it, part of it and all of it: the
        # one-index median must lose exactly the requests the rule that
        # re-sorts every wait after each shed removes.
        rng = np.random.default_rng(seed)
        depth = 1024 if seed == 0 else int(rng.integers(64, 1025))
        stamps = [0.0]
        while len(stamps) < depth:
            stamps.append(stamps[-1] + float(rng.choice((0.0, 0.001, 0.002))))
        now = stamps[-1] + 0.005
        waits = [(now - stamp) * 1e3 for stamp in stamps]

        def resorting_rule(target):
            queue = list(waits)
            shed = 0
            while queue:
                ordered = sorted(queue)
                if ordered[len(ordered) // 2] <= target:
                    break
                queue.pop(0)
                shed += 1
            return shed

        async def tick(target):
            clock = _FakeClock()
            scheduler = BatchScheduler(
                ServeConfig(codel_target_ms=target), clock=clock
            )
            futures = []
            for i, stamp in enumerate(stamps):
                clock.now = stamp
                futures.append(scheduler.submit(_request(f"q{i}", seed=i)))
            clock.now = now
            shed = scheduler._codel_tick()
            for future in futures:
                if future.done():
                    assert isinstance(future.exception(), CodelShed)
            return shed, [future.done() for future in futures]

        # Between the newest wait and the median one: a partial shed.
        between = (waits[(depth - 1) // 2] + waits[-1]) / 2
        counts = []
        for target in (waits[0] + 1.0, between, float(rng.choice(waits)), 0.0):
            expected = resorting_rule(target)
            shed, done = asyncio.run(tick(target))
            assert shed == expected
            assert done == [i < expected for i in range(depth)]
            counts.append(shed)
        assert counts[0] == 0 and 0 < counts[1] < depth and counts[3] == depth

    def test_watchdog_config_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(ServeConfig(codel_target_ms=-1.0))
        with pytest.raises(ValueError):
            BatchScheduler(ServeConfig(codel_interval_ms=0.0))


class _ScriptedConn:
    """A fake transport scripted with per-attempt outcomes."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.seen_deadlines = []

    def query(self, payload, *, deadline_ms=None):
        self.seen_deadlines.append(deadline_ms)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def close(self):
        pass


def _scripted_client(outcomes, *, policy=None, clock=None):
    """A RetryingServeClient whose transport is a scripted fake."""
    sleeps = []
    client = RetryingServeClient(
        "127.0.0.1",
        1,  # never dialled: _connection is replaced below
        policy=policy or ClientRetryPolicy(base_delay=0.01, jitter=0.0),
        clock=clock or _FakeClock(step=0.001),
        sleep=sleeps.append,
    )
    conn = _ScriptedConn(outcomes)
    client._connection = lambda: conn
    return client, conn, sleeps


class TestClientRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientRetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ClientRetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            ClientRetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            ClientRetryPolicy(breaker_threshold=-1)

    def test_backoff_doubles_and_caps(self):
        import numpy as np

        policy = ClientRetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [policy.delay(k, rng) for k in range(4)]
        assert delays == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_stays_in_band(self):
        import numpy as np

        policy = ClientRetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.25)
        rng = np.random.default_rng(7)
        for k in range(6):
            raw = min(10.0, 0.1 * 2**k)
            delay = policy.delay(k, rng)
            assert raw * 0.75 <= delay <= raw * 1.25


class TestRetryingClient:
    def test_succeeds_after_transport_failures(self):
        reply = {"id": "q1", "ok": True, "status": 200}
        client, _, sleeps = _scripted_client(
            [ConnectionResetError("boom"), TimeoutError("slow"), reply]
        )
        assert client.query({"id": "q1"}) == reply
        assert client.attempts_made == 3
        assert len(sleeps) == 2
        assert sleeps[1] == pytest.approx(sleeps[0] * 2)

    def test_retries_exhausted(self):
        client, _, _ = _scripted_client(
            [ConnectionResetError("boom")] * 4,
            policy=ClientRetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0),
        )
        with pytest.raises(RetriesExhausted) as err:
            client.query({"id": "q1"})
        assert err.value.attempts == 4

    def test_application_errors_are_answers_not_retries(self):
        shed = {"id": "q1", "ok": False, "status": 429}
        client, conn, sleeps = _scripted_client([shed])
        assert client.query({"id": "q1"}) == shed
        assert client.attempts_made == 1
        assert not sleeps
        assert not conn.outcomes  # nothing scripted beyond the one answer

    def test_breaker_opens_then_half_open_probe_closes(self):
        clock = _FakeClock(step=0.0)
        policy = ClientRetryPolicy(
            max_attempts=1,
            base_delay=0.0,
            jitter=0.0,
            breaker_threshold=2,
            breaker_cooldown=10.0,
        )
        reply = {"id": "q", "ok": True, "status": 200}
        client, conn, _ = _scripted_client(
            [ConnectionResetError("a"), ConnectionResetError("b"), reply, reply],
            policy=policy,
            clock=clock,
        )
        with pytest.raises(RetriesExhausted):
            client.query({"id": "q"})
        with pytest.raises(RetriesExhausted):
            client.query({"id": "q"})  # second consecutive failure: trips
        assert client.breaker_trips == 1
        assert client.circuit_open
        with pytest.raises(CircuitOpenError) as err:
            client.query({"id": "q"})
        assert err.value.retry_after > 0
        assert len(conn.seen_deadlines) == 2  # fail-fast made no call
        clock.now += 11.0  # cooldown elapsed: half-open
        assert client.query({"id": "q"}) == reply  # the probe closes it
        assert not client.circuit_open
        assert client.query({"id": "q"}) == reply

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock(step=0.0)
        policy = ClientRetryPolicy(
            max_attempts=1,
            base_delay=0.0,
            jitter=0.0,
            breaker_threshold=1,
            breaker_cooldown=10.0,
        )
        client, _, _ = _scripted_client(
            [ConnectionResetError("a"), ConnectionResetError("b")],
            policy=policy,
            clock=clock,
        )
        with pytest.raises(RetriesExhausted):
            client.query({"id": "q"})
        assert client.circuit_open
        clock.now += 11.0
        with pytest.raises(RetriesExhausted):
            client.query({"id": "q"})  # the probe misses
        assert client.circuit_open  # ...and the circuit re-opened

    def test_deadline_caps_the_whole_retry_loop(self):
        clock = _FakeClock(step=0.0)
        policy = ClientRetryPolicy(
            max_attempts=10, base_delay=1.0, max_delay=1.0, jitter=0.0
        )

        def failing_then_tick(payload, *, deadline_ms=None):
            clock.now += 0.3  # each attempt burns 300ms of budget
            raise ConnectionResetError("down")

        client = RetryingServeClient(
            "127.0.0.1",
            1,
            policy=policy,
            clock=clock,
            sleep=lambda s: None,
        )
        conn = _ScriptedConn([])
        conn.query = failing_then_tick
        client._connection = lambda: conn
        with pytest.raises(RetriesExhausted) as err:
            client.query({"id": "q"}, deadline_ms=500)
        # 500ms budget, 300ms per attempt, 1s backoff: the loop must
        # stop long before the 10-attempt ceiling.
        assert err.value.attempts < 10

    def test_forwards_shrinking_deadline_on_wire(self):
        clock = _FakeClock(step=0.0)
        reply = {"id": "q", "ok": True, "status": 200}
        client, conn, _ = _scripted_client([reply], clock=clock)
        clock.now = 0.0
        client.query({"id": "q"}, deadline_ms=800)
        assert conn.seen_deadlines == [800]


class TestDeadServer:
    def test_recv_times_out_against_silent_server(self):
        # Regression: a server that accepts but never answers must raise
        # a timeout, not block the caller forever.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        accepted = []
        acceptor = threading.Thread(
            target=lambda: accepted.append(listener.accept()), daemon=True
        )
        acceptor.start()
        try:
            client = ServeClient("127.0.0.1", port, timeout=0.2)
            client.send({"op": "ping", "id": "p1"})
            with pytest.raises((TimeoutError, socket.timeout)):
                client.recv()
            client.close()
        finally:
            listener.close()
            acceptor.join(timeout=5.0)
            for sock, _ in accepted:
                sock.close()

    def test_query_deadline_bounds_recv_locally(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        accepted = []
        acceptor = threading.Thread(
            target=lambda: accepted.append(listener.accept()), daemon=True
        )
        acceptor.start()
        try:
            client = ServeClient("127.0.0.1", port, timeout=30.0)
            with pytest.raises((TimeoutError, socket.timeout)):
                client.query({"id": "q1", "n": 4, "x": 1, "threshold": 1},
                             deadline_ms=200)
            client.close()
        finally:
            listener.close()
            acceptor.join(timeout=5.0)
            for sock, _ in accepted:
                sock.close()
