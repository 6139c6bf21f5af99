"""The service configuration: one frozen bundle, one source per default.

:class:`ServeConfig` is where every service default lives.  The layers
that take the same settings one by one --
:class:`~repro.serve.scheduler.BatchScheduler`,
:class:`~repro.serve.admission.AdmissionPolicy` and ``tcast-serve run``
-- read their defaults off its fields instead of restating them, so a
default changes in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default cap on one request line; longer lines get a 400 frame and are
#: discarded up to their newline (the connection survives).
MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Everything the service needs, in one picklable bundle.

    Attributes:
        host: Bind address.
        port: Bind port; ``0`` picks a free one (read it back from
            :attr:`~repro.serve.server.ThresholdQueryService.port`).
        max_pending: Global admitted-but-unfinished cap.
        tenant_rate: Per-tenant sustained requests/second (0 = off).
        tenant_burst: Per-tenant burst capacity.
        max_batch_runs: Cap on total trials per coalesced batch.
        workers: Scheduler executor lanes.  One by default: the paper's
            queries are small enough that numpy holds the GIL for most
            of a group, so a second lane contends for it instead of
            running in parallel, and splits the backlog into smaller
            groups (DESIGN.md section 16.3).  Populations in the
            thousands are where more lanes pay off.
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
        codel_interval_ms: Scheduler watchdog period: each tick fails
            the queued requests past their deadline, then sheds by CoDel
            when it is on.
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
