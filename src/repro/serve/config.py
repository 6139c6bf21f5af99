"""The service configuration: one frozen bundle, validated once.

:class:`ServeConfig` holds every service setting and is the one place
its range is checked.  The layers take the config itself and read their
settings off it -- :class:`~repro.serve.admission.AdmissionController`,
:class:`~repro.serve.scheduler.BatchScheduler` and the front end in
:mod:`repro.serve.server` -- and ``tcast-serve run`` builds one from its
flags (a value out of range is a usage error there), so a default or a
bound changes in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default cap on one request line; longer lines get a 400 frame and are
#: discarded up to their newline (the connection survives).
MAX_LINE_BYTES = 1 << 20

#: Each numeric field's smallest valid value.  Caps and counts need at
#: least one; ``0`` switches the tenant rate limit, the two connection
#: timers and CoDel off, and picks a free port.
_FLOORS = (
    ("port", 0),
    ("max_pending", 1),
    ("tenant_rate", 0),
    ("max_batch_runs", 1),
    ("workers", 1),
    ("max_connections", 1),
    ("max_line_bytes", 1),
    ("idle_timeout", 0),
    ("read_deadline", 0),
    ("max_inflight_per_conn", 1),
    ("codel_target_ms", 0),
)


@dataclass(frozen=True)
class ServeConfig:
    """Everything the service needs, in one picklable bundle.

    Construction rejects every out-of-range field with a
    :class:`ValueError` naming it (NaN included), so no layer re-checks
    a setting it reads.

    Attributes:
        host: Bind address.
        port: Bind port (0-65535); ``0`` picks a free one (read it back
            from :attr:`~repro.serve.server.ThresholdQueryService.port`).
        max_pending: Global admitted-but-unfinished cap.
        tenant_rate: Per-tenant sustained requests/second (0 = off).
        tenant_burst: Per-tenant burst capacity; at least 1 when the
            rate limit is on.
        max_batch_runs: Cap on total trials per coalesced batch.
        workers: Scheduler executor lanes.  One by default: the paper's
            queries are small enough that numpy holds the GIL for most
            of a group, so a second lane contends for it instead of
            running in parallel, and splits the backlog into smaller
            groups (DESIGN.md section 16.3).  Populations in the
            thousands are where more lanes pay off.  A group within
            the inline bound runs on the event-loop thread whatever
            this is; only bigger groups run on a lane's thread.
        vectorize: Allow the vectorized kernel.
        metrics: Enable the :mod:`repro.obs` registry on startup so the
            ``metrics`` endpoint reports live counters.
        max_connections: Cap on concurrently served connections;
            connections beyond it are refused with a 503-style frame.
        max_line_bytes: Cap on one request line (see
            :mod:`repro.serve.server`).
        idle_timeout: Seconds a connection may sit between request
            lines before the service closes it; ``0`` disables.
        read_deadline: Seconds a *started* frame may take to reach its
            newline before the connection is closed -- the slow-loris
            bound (trickling bytes resets an idle timer but not this
            one); ``0`` disables.
        max_inflight_per_conn: Outstanding queries one connection may
            hold before its read loop is backpressured.
        codel_target_ms: Scheduler watchdog queue-wait p50 target;
            ``0`` disables CoDel shedding (see
            :class:`repro.serve.scheduler.BatchScheduler`).
        codel_interval_ms: Scheduler watchdog period (``> 0``): each
            tick fails the queued requests past their deadline, then
            sheds by CoDel when it is on.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 1024
    tenant_rate: float = 0.0
    tenant_burst: float = 64.0
    max_batch_runs: int = 4096
    workers: int = 1
    vectorize: bool = True
    metrics: bool = True
    max_connections: int = 256
    max_line_bytes: int = MAX_LINE_BYTES
    idle_timeout: float = 300.0
    read_deadline: float = 30.0
    max_inflight_per_conn: int = 128
    codel_target_ms: float = 0.0
    codel_interval_ms: float = 100.0

    def __post_init__(self) -> None:
        """Reject every out-of-range field (see the class docstring)."""
        for name, floor in _FLOORS:
            value = getattr(self, name)
            if not value >= floor:
                raise ValueError(f"{name} must be >= {floor}, got {value!r}")
        if not self.port <= 65535:
            raise ValueError(f"port must be <= 65535, got {self.port!r}")
        if not self.codel_interval_ms > 0:
            raise ValueError(
                f"codel_interval_ms must be > 0, got {self.codel_interval_ms!r}"
            )
        if self.tenant_rate > 0 and not self.tenant_burst >= 1:
            raise ValueError(
                f"tenant_burst must be >= 1, got {self.tenant_burst!r}"
            )
