"""Bounded admission: rate limits and load shedding at the front door.

The service refuses work it cannot absorb *before* queueing it, in two
layers:

* a **per-tenant token bucket** -- each tenant sustains ``tenant_rate``
  requests per second with bursts up to ``tenant_burst``; and
* a **global pending cap** -- at most ``max_pending`` admitted requests
  may be queued or in flight at once, bounding memory and tail latency.

Rejections are cheap, counted per reason in :mod:`repro.obs`
(``serve.rejected.rate_limited`` / ``serve.rejected.queue_full`` /
``serve.rejected.draining`` / ``serve.rejected.deadline``), and carry a
stable reason code the front end echoes to the client -- 429-style for
load sheds, 504-style for requests whose ``deadline_ms`` budget is
already spent on arrival.  A draining service (shutdown signal
received) sheds everything new while in-flight work finishes.

The controller is synchronous and lock-free by construction: it is only
called from the service's event-loop thread, so plain attribute updates
are safe.  The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.obs import get_registry
from repro.serve.config import ServeConfig
from repro.serve.request import QueryRequest

_OBS = get_registry()
_ADMITTED = _OBS.counter("serve.admitted")
_REJ_RATE = _OBS.counter("serve.rejected.rate_limited")
_REJ_FULL = _OBS.counter("serve.rejected.queue_full")
_REJ_DRAIN = _OBS.counter("serve.rejected.draining")
_REJ_DEADLINE = _OBS.counter("serve.rejected.deadline")

#: Rejection reason codes (stable wire values).
REASON_RATE_LIMITED = "rate_limited"
REASON_QUEUE_FULL = "queue_full"
REASON_DRAINING = "draining"
REASON_DEADLINE = "deadline"


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    Args:
        rate: Sustained refill rate in tokens per second (``> 0``).
        burst: Bucket capacity; the largest instantaneous burst.
        clock: Monotonic time source (injected by tests).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; ``False`` sheds the request."""
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


class AdmissionController:
    """Applies a config's admission settings to incoming requests.

    Args:
        config: The service configuration; admission reads its
            ``max_pending``, ``tenant_rate`` and ``tenant_burst``.
        clock: Monotonic time source shared by all tenant buckets.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._pending = 0
        self._draining = False

    @property
    def pending(self) -> int:
        """Admitted requests not yet released (queued or in flight)."""
        return self._pending

    @property
    def draining(self) -> bool:
        """Whether the service has begun its shutdown drain."""
        return self._draining

    def begin_drain(self) -> None:
        """Shed all new work from now on; in-flight work is unaffected."""
        self._draining = True

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.config.tenant_rate,
                self.config.tenant_burst,
                clock=self._clock,
            )
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, request: QueryRequest) -> Optional[str]:
        """Admit ``request`` or return a rejection reason code.

        ``None`` means admitted: the caller owns one pending slot and
        must call :meth:`release` exactly once when the request finishes
        (successfully or not).  A string return is a shed
        (:data:`REASON_DRAINING` / :data:`REASON_DEADLINE` /
        :data:`REASON_RATE_LIMITED` / :data:`REASON_QUEUE_FULL`),
        already counted in the metrics.  Deadline rejections come
        before the token bucket so already-dead work never spends a
        tenant's rate budget.
        """
        if self._draining:
            _REJ_DRAIN.inc()
            return REASON_DRAINING
        if request.deadline_ms is not None and request.deadline_ms <= 0:
            _REJ_DEADLINE.inc()
            return REASON_DEADLINE
        if self.config.tenant_rate > 0 and not self._bucket(
            request.tenant
        ).try_acquire():
            _REJ_RATE.inc()
            return REASON_RATE_LIMITED
        if self._pending >= self.config.max_pending:
            _REJ_FULL.inc()
            return REASON_QUEUE_FULL
        self._pending += 1
        _ADMITTED.inc()
        return None

    def release(self) -> None:
        """Return one pending slot (the request left the system)."""
        if self._pending <= 0:
            raise RuntimeError("release() without a matching admit()")
        self._pending -= 1
