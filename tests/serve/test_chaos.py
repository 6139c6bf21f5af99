"""The serve chaos suite: a seeded hostile network between client and daemon.

Every test runs the real service and the real :class:`ChaosProxy` on
background event loops and drives blocking clients through the proxy.
The invariants under fire:

* every *admitted* query that gets an ``ok`` answer is **bit-identical**
  to the scalar oracle -- chaos may delay or kill transport, never
  corrupt answers;
* failures surface as explicit error frames or typed client exceptions,
  never silent hangs;
* the daemon drains cleanly (graceful stop succeeds) after arbitrary
  connection carnage.

A SIGALRM fixture puts a hard wall-clock bound on every test: a hang is
a loud failure, not a stuck CI job.
"""

from __future__ import annotations

import json
import logging
import signal
import socket

import pytest

from repro.serve.chaos import ChaosSpec, chaos_in_thread
from repro.serve.client import (
    ClientRetryPolicy,
    RetriesExhausted,
    RetryingServeClient,
    ServeClient,
)
from repro.serve.executor import execute_group
from repro.serve.request import QueryRequest
from repro.serve.server import ServeConfig, serve_in_thread

#: Hard per-test wall-clock bound (seconds).
WALL_CLOCK_LIMIT = 120


@pytest.fixture(autouse=True)
def _hard_wall_clock():
    """Fail loudly (SIGALRM) instead of hanging a wedged chaos test."""

    def _blow_up(signum, frame):
        raise RuntimeError(
            f"chaos test exceeded its {WALL_CLOCK_LIMIT}s wall-clock bound"
        )

    previous = signal.signal(signal.SIGALRM, _blow_up)
    signal.alarm(WALL_CLOCK_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def _oracle(wire: dict):
    """The scalar-path ground truth for one wire query."""
    [outcome] = execute_group(
        [QueryRequest.from_wire(wire)], vectorize=False
    )
    return outcome


def _assert_bit_identical(reply: dict, wire: dict) -> None:
    expected = _oracle(wire)
    assert tuple(reply["decisions"]) == expected.decisions
    assert tuple(reply["queries"]) == expected.queries


@pytest.fixture
def service():
    """The real daemon on a free port, drained on teardown."""
    with serve_in_thread(ServeConfig(port=0, workers=2)) as handle:
        yield handle


class TestChaosSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(latency_ms=-1.0)
        with pytest.raises(ValueError):
            ChaosSpec(p_disconnect=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(stall_ms=-1.0)

    def test_none_is_faultless(self):
        spec = ChaosSpec.none()
        assert spec.p_truncate == spec.p_disconnect == spec.p_stall == 0.0


class TestTransparentProxy:
    def test_faultless_proxy_is_invisible(self, service):
        with chaos_in_thread("127.0.0.1", service.port) as chaos:
            wires = [_query(f"q{i}", seed=i) for i in range(5)]
            with ServeClient("127.0.0.1", chaos.port) as client:
                for wire in wires:
                    reply = client.request(wire)
                    assert reply["ok"] and reply["status"] == 200
                    _assert_bit_identical(reply, wire)
            injected = chaos.injected
        assert injected["connections"] == 1
        assert injected["truncations"] == 0
        assert injected["disconnects"] == 0

    def test_latency_and_stalls_delay_but_never_corrupt(self, service):
        spec = ChaosSpec(
            latency_ms=2.0,
            latency_jitter_ms=3.0,
            p_stall=0.3,
            stall_ms=40.0,
            seed=11,
        )
        with chaos_in_thread("127.0.0.1", service.port, spec) as chaos:
            wires = [_query(f"q{i}", seed=i) for i in range(10)]
            with ServeClient("127.0.0.1", chaos.port, timeout=30.0) as client:
                for wire in wires:
                    reply = client.request(wire)
                    assert reply["ok"]
                    _assert_bit_identical(reply, wire)
            injected = chaos.injected
        assert injected["delays"] > 0
        assert injected["stalls"] > 0


class TestRetryUnderFire:
    def _torture(self, service, spec, *, queries=25, policy=None):
        """Run ``queries`` distinct queries through the fault mix."""
        wires = [
            _query(f"q{i}", seed=i, runs=1 + i % 3, threshold=8 + i % 2)
            for i in range(queries)
        ]
        with chaos_in_thread("127.0.0.1", service.port, spec) as chaos:
            client = RetryingServeClient(
                "127.0.0.1",
                chaos.port,
                policy=policy
                or ClientRetryPolicy(
                    max_attempts=8,
                    base_delay=0.01,
                    max_delay=0.1,
                    breaker_threshold=0,  # chaos is the point: no breaker
                ),
                timeout=10.0,
            )
            answered = 0
            for wire in wires:
                reply = client.query(wire, deadline_ms=60_000)
                assert reply["ok"], reply
                _assert_bit_identical(reply, wire)
                answered += 1
            client.close()
            injected = chaos.injected
        return answered, injected, client

    def test_disconnects_are_retried_to_success(self, service):
        answered, injected, client = self._torture(
            service, ChaosSpec(p_disconnect=0.2, seed=3)
        )
        assert answered == 25
        assert injected["disconnects"] > 0
        # Every injected disconnect killed one attempt mid-flight, so
        # the client must have dialled more attempts than queries.
        assert client.attempts_made > answered

    def test_mid_frame_truncation_never_corrupts_answers(self, service):
        answered, injected, client = self._torture(
            service, ChaosSpec(p_truncate=0.2, seed=5)
        )
        assert answered == 25
        assert injected["truncations"] > 0
        assert client.attempts_made > answered

    def test_mixed_fault_soup(self, service):
        spec = ChaosSpec(
            latency_ms=1.0,
            latency_jitter_ms=2.0,
            p_truncate=0.05,
            p_disconnect=0.05,
            p_stall=0.1,
            stall_ms=20.0,
            seed=7,
        )
        answered, injected, _ = self._torture(service, spec)
        assert answered == 25
        assert injected["connections"] >= 1

    def test_dead_upstream_fails_fast_with_typed_error(self):
        # Proxy up, service down: every attempt sees an immediate close.
        with serve_in_thread(ServeConfig(port=0, workers=1)) as handle:
            dead_port = handle.port
        # handle stopped: the port is now unserved.
        with chaos_in_thread("127.0.0.1", dead_port) as chaos:
            client = RetryingServeClient(
                "127.0.0.1",
                chaos.port,
                policy=ClientRetryPolicy(
                    max_attempts=3, base_delay=0.0, jitter=0.0
                ),
                timeout=2.0,
            )
            with pytest.raises(RetriesExhausted) as err:
                client.query(_query("q1"))
            client.close()
        assert err.value.attempts == 3


class TestDrainUnderChaos:
    def test_daemon_drains_cleanly_after_connection_carnage(self):
        handle = serve_in_thread(ServeConfig(port=0, workers=2))
        spec = ChaosSpec(p_disconnect=0.15, p_truncate=0.1, seed=13)
        try:
            with chaos_in_thread("127.0.0.1", handle.port, spec) as chaos:
                client = RetryingServeClient(
                    "127.0.0.1",
                    chaos.port,
                    policy=ClientRetryPolicy(
                        max_attempts=8,
                        base_delay=0.01,
                        max_delay=0.1,
                        breaker_threshold=0,
                    ),
                    timeout=10.0,
                )
                for i in range(15):
                    wire = _query(f"q{i}", seed=i)
                    reply = client.query(wire, deadline_ms=60_000)
                    assert reply["ok"]
                    _assert_bit_identical(reply, wire)
                client.close()
        finally:
            # The actual assertion: a graceful drain completes (stop()
            # raises if the service thread fails to exit in time).
            handle.stop(timeout=30.0)

    def test_direct_shutdown_op_through_chaos(self, service):
        # Even through a lossy proxy, a clean connection can still land
        # the shutdown op; the SIGALRM fixture bounds the whole dance.
        spec = ChaosSpec(latency_ms=1.0, seed=17)
        with chaos_in_thread("127.0.0.1", service.port, spec) as chaos:
            client = RetryingServeClient(
                "127.0.0.1",
                chaos.port,
                policy=ClientRetryPolicy(max_attempts=5, base_delay=0.01),
                timeout=10.0,
            )
            reply = client.query(_query("q1", seed=1), deadline_ms=30_000)
            assert reply["ok"]
            client.close()

    def test_stop_with_a_client_still_connected_logs_nothing(
        self, service, caplog
    ):
        with caplog.at_level(logging.WARNING):
            with chaos_in_thread("127.0.0.1", service.port) as chaos:
                sock = socket.create_connection(("127.0.0.1", chaos.port))
                sock.sendall(b'{"op": "ping", "id": "p"}\n')
                assert json.loads(sock.makefile("rb").readline())["ok"]
            # The proxy closed the idle connection before stopping.
            assert sock.recv(1) == b""
            sock.close()
        assert not caplog.records, [r.getMessage() for r in caplog.records]
