"""Admission control: token buckets, pending caps, drain shedding."""

from __future__ import annotations

import pytest

from repro.obs import enable_metrics, get_registry
from repro.serve.admission import (
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    AdmissionController,
    TokenBucket,
)
from repro.serve.config import ServeConfig
from repro.serve.request import QueryRequest


class _Clock:
    """A settable monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _request(tenant: str = "acme", rid: str = "q1") -> QueryRequest:
    return QueryRequest(id=rid, tenant=tenant, n=64, x=20, threshold=8)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = _Clock()
        bucket = TokenBucket(2.0, 3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        clock.advance(0.5)  # 1 token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = _Clock()
        bucket = TokenBucket(100.0, 2.0, clock=clock)
        clock.advance(60.0)
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]

    @pytest.mark.parametrize("rate,burst", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_bad_configuration_rejected(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate, burst)


class TestAdmissionController:
    def test_pending_cap_sheds_queue_full(self):
        ctl = AdmissionController(ServeConfig(max_pending=2))
        assert ctl.admit(_request()) is None
        assert ctl.admit(_request(rid="q2")) is None
        assert ctl.admit(_request(rid="q3")) == REASON_QUEUE_FULL
        ctl.release()
        assert ctl.admit(_request(rid="q4")) is None
        assert ctl.pending == 2

    def test_per_tenant_rate_limit_is_isolated(self):
        clock = _Clock()
        ctl = AdmissionController(
            ServeConfig(max_pending=100, tenant_rate=1.0, tenant_burst=2.0),
            clock=clock,
        )
        assert ctl.admit(_request("a")) is None
        assert ctl.admit(_request("a")) is None
        assert ctl.admit(_request("a")) == REASON_RATE_LIMITED
        # Tenant b has its own bucket.
        assert ctl.admit(_request("b")) is None
        clock.advance(1.0)
        assert ctl.admit(_request("a")) is None

    def test_zero_rate_disables_rate_limiting(self):
        ctl = AdmissionController(ServeConfig(max_pending=1000))
        assert all(
            ctl.admit(_request(rid=f"q{i}")) is None for i in range(500)
        )

    def test_draining_sheds_everything(self):
        ctl = AdmissionController(ServeConfig())
        ctl.begin_drain()
        assert ctl.admit(_request()) == REASON_DRAINING
        assert ctl.pending == 0

    def test_release_without_admit_is_a_bug(self):
        ctl = AdmissionController(ServeConfig())
        with pytest.raises(RuntimeError):
            ctl.release()

    def test_rejections_and_admissions_are_counted(self):
        enable_metrics()
        reg = get_registry()
        before_admitted = reg.snapshot().counter("serve.admitted")
        clock = _Clock()
        ctl = AdmissionController(
            ServeConfig(max_pending=1, tenant_rate=1.0, tenant_burst=1.0),
            clock=clock,
        )
        assert ctl.admit(_request()) is None
        assert ctl.admit(_request(rid="q2")) == REASON_RATE_LIMITED
        clock.advance(1.0)
        assert ctl.admit(_request(rid="q3")) == REASON_QUEUE_FULL
        ctl.begin_drain()
        assert ctl.admit(_request(rid="q4")) == REASON_DRAINING
        snap = reg.snapshot()
        assert snap.counter("serve.admitted") - before_admitted == 1
        assert snap.counter("serve.rejected.rate_limited") == 1
        assert snap.counter("serve.rejected.queue_full") == 1
        assert snap.counter("serve.rejected.draining") == 1
