"""End-to-end service tests over real TCP (in-process event loop)."""

from __future__ import annotations

import json
import logging
import socket

import pytest

from repro.obs import MetricsSnapshot
from repro.serve.client import ServeClient
from repro.serve.executor import execute_group
from repro.serve.request import QueryRequest
from repro.serve.server import ServeConfig, serve_in_thread


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


@pytest.fixture
def service():
    """A running service on a free port, drained on teardown."""
    with serve_in_thread(ServeConfig(port=0, workers=2)) as handle:
        yield handle


class TestProtocol:
    def test_ping(self, service):
        with ServeClient("127.0.0.1", service.port) as client:
            reply = client.request({"op": "ping", "id": "p1"})
        assert reply == {"id": "p1", "ok": True, "op": "ping"}

    def test_query_answers_match_direct_execution(self, service):
        wire = _query("q1", seed=42, runs=8)
        with ServeClient("127.0.0.1", service.port) as client:
            reply = client.request(wire)
        assert reply["ok"] and reply["status"] == 200
        [expected] = execute_group(
            [QueryRequest.from_wire(wire)], vectorize=False
        )
        assert tuple(reply["decisions"]) == expected.decisions
        assert tuple(reply["queries"]) == expected.queries
        assert reply["exact"] is True

    def test_pipelined_requests_all_answered(self, service):
        wires = [_query(f"q{i}", seed=i) for i in range(10)]
        with ServeClient("127.0.0.1", service.port) as client:
            for wire in wires:
                client.send(wire)
            replies = {client.recv()["id"] for _ in wires}
        assert replies == {w["id"] for w in wires}

    def test_malformed_json_gets_400(self, service):
        with ServeClient("127.0.0.1", service.port) as client:
            client._sock.sendall(b"this is not json\n")
            reply = client.recv()
        assert not reply["ok"]
        assert reply["status"] == 400
        assert reply["error"]["code"] == "bad_json"

    def test_invalid_query_gets_400_with_field_detail(self, service):
        with ServeClient("127.0.0.1", service.port) as client:
            reply = client.request(_query("q1", n=0))
        assert reply["status"] == 400
        assert "n must be" in reply["error"]["message"]

    def test_unknown_op_gets_400(self, service):
        with ServeClient("127.0.0.1", service.port) as client:
            reply = client.request({"op": "teleport", "id": "t1"})
        assert reply["status"] == 400
        assert reply["error"]["code"] == "bad_op"


class TestBadSeedOverTheWire:
    def test_negative_seed_fails_alone_at_the_edge(self):
        """A negative seed is a 400, never a member of a coalesced group:
        the well-formed request pipelined behind it is answered and no
        executed group fails."""
        with serve_in_thread(ServeConfig(port=0, workers=1)) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.send(_query("bad", seed=-1))
                client.send(_query("good", seed=5))
                replies = {r["id"]: r for r in (client.recv(), client.recv())}
                counters = client.request({"op": "metrics"})["metrics"][
                    "counters"
                ]
        assert replies["bad"]["status"] == 400
        assert replies["bad"]["error"]["code"] == "bad_field"
        assert replies["good"]["ok"] and replies["good"]["status"] == 200
        assert counters.get("serve.failed", 0) == 0


class TestRateLimitOverTheWire:
    def test_429_rejections_count_in_metrics(self):
        config = ServeConfig(
            port=0, tenant_rate=0.001, tenant_burst=2.0, workers=1
        )
        with serve_in_thread(config) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                replies = [
                    client.request(_query(f"q{i}", seed=i)) for i in range(5)
                ]
                metrics = client.request({"op": "metrics"})
        shed = [r for r in replies if not r["ok"]]
        served = [r for r in replies if r["ok"]]
        assert len(served) == 2  # the burst
        assert len(shed) == 3
        assert all(r["status"] == 429 for r in shed)
        assert all(r["error"]["code"] == "rate_limited" for r in shed)
        counters = metrics["metrics"]["counters"]
        assert counters["serve.admitted"] == 2
        assert counters["serve.rejected.rate_limited"] == 3


class TestMetricsEndpoint:
    def test_snapshot_round_trips_and_merges(self, service):
        """The endpoint serves a real MetricsSnapshot: from_dict must
        invert the wire payload, and merging two snapshots must be
        exact on the serve counters."""
        with ServeClient("127.0.0.1", service.port) as client:
            client.request(_query("q1", seed=1))
            first = client.request({"op": "metrics"})["metrics"]
            client.request(_query("q2", seed=2))
            second = client.request({"op": "metrics"})["metrics"]
        snap1 = MetricsSnapshot.from_dict(first)
        snap2 = MetricsSnapshot.from_dict(second)
        assert snap1.to_dict() == first
        assert snap2.counter("serve.completed") == 2
        merged = snap1.merge(snap2)
        assert merged.counter("serve.completed") == 3
        assert (
            merged.histograms["serve.latency_ms"].total
            == snap1.histograms["serve.latency_ms"].total
            + snap2.histograms["serve.latency_ms"].total
        )

    def test_kernel_model_counters_flow_through(self, service):
        with ServeClient("127.0.0.1", service.port) as client:
            reply = client.request(_query("q1", seed=3, runs=4))
            metrics = client.request({"op": "metrics"})["metrics"]
        assert metrics["counters"]["model.queries"] == sum(reply["queries"])


class TestShutdownOp:
    def test_shutdown_op_drains_and_stops(self):
        handle = serve_in_thread(ServeConfig(port=0, workers=1))
        with ServeClient("127.0.0.1", handle.port) as client:
            reply = client.request({"op": "shutdown", "id": "s1"})
            assert reply["ok"]
        handle._thread.join(timeout=10.0)
        assert not handle._thread.is_alive()

    def test_stop_with_a_client_still_connected_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING):
            with serve_in_thread(ServeConfig(port=0, workers=1)) as handle:
                sock = socket.create_connection(("127.0.0.1", handle.port))
                sock.sendall(b'{"op": "ping", "id": "p"}\n')
                assert json.loads(sock.makefile("rb").readline())["ok"]
            # The service closed the idle connection before stopping.
            assert sock.recv(1) == b""
            sock.close()
        assert not caplog.records, [r.getMessage() for r in caplog.records]

    def test_bind_failure_is_raised_to_the_caller(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(RuntimeError, match="service failed to start"):
                serve_in_thread(ServeConfig(host="127.0.0.1", port=port, workers=1))
