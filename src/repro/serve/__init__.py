"""Threshold querying as a service: the long-lived ``tcast-serve`` daemon.

The rest of the repository runs threshold queries as batch jobs --
figure sweeps, the farm, the benchmark harness.  This package turns the
same machinery into a *service*: a single asyncio process that
multiplexes many concurrent threshold queries over simulated testbeds,
the deployment shape the paper's Sec VII sketches for a base station
answering operator queries on demand.

The pipeline, front to back:

* :mod:`repro.serve.request` -- the wire-level request model
  (:class:`~repro.serve.request.QueryRequest`) and its validation.
* :mod:`repro.serve.admission` -- bounded admission: per-tenant
  token-bucket rate limits plus a global pending cap, shedding load with
  429-style rejections counted in :mod:`repro.obs`.
* :mod:`repro.serve.scheduler` -- the batching scheduler: admitted
  queries with the same ``(population, model, threshold)`` family
  coalesce into shared vectorized rounds.
* :mod:`repro.serve.executor` -- executes a coalesced group on the
  PR-7 vectorized kernel (scalar fallback included), bit-identical to
  running each request alone.
* :mod:`repro.serve.server` -- the newline-JSON-over-TCP front end with
  graceful SIGTERM/SIGINT drain and a live ``metrics`` endpoint.
* :mod:`repro.serve.config` -- :class:`~repro.serve.config.ServeConfig`,
  the one source of every service default.
* :mod:`repro.serve.errors` -- the typed failure hierarchy
  (:class:`~repro.serve.errors.ServeError`) the front end renders into
  wire frames mechanically.
* :mod:`repro.serve.client` -- synchronous clients: the plain
  :class:`~repro.serve.client.ServeClient` and the retrying,
  circuit-breaking :class:`~repro.serve.client.RetryingServeClient`.
* :mod:`repro.serve.chaos` -- a seeded TCP fault-injection proxy
  (:class:`~repro.serve.chaos.ChaosProxy`) for the resilience suite.
* :mod:`repro.serve.cli` -- the ``tcast-serve`` console entry point.

See DESIGN.md sections 16 (service) and 17 (resilience) for the
design rationale.
"""

from repro.serve.admission import AdmissionController, AdmissionPolicy, TokenBucket
from repro.serve.chaos import ChaosHandle, ChaosProxy, ChaosSpec, chaos_in_thread
from repro.serve.client import (
    CircuitOpenError,
    ClientRetryPolicy,
    RetriesExhausted,
    RetryingServeClient,
    ServeClient,
)
from repro.serve.config import ServeConfig
from repro.serve.errors import (
    CodelShed,
    DeadlineExceeded,
    QueryExecutionError,
    ServeError,
)
from repro.serve.executor import QueryOutcome, execute_group
from repro.serve.request import QueryRequest, RequestError
from repro.serve.scheduler import BatchScheduler
from repro.serve.server import ServiceHandle, ThresholdQueryService, serve_in_thread

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BatchScheduler",
    "ChaosHandle",
    "ChaosProxy",
    "ChaosSpec",
    "CircuitOpenError",
    "ClientRetryPolicy",
    "CodelShed",
    "DeadlineExceeded",
    "QueryExecutionError",
    "QueryOutcome",
    "QueryRequest",
    "RequestError",
    "RetriesExhausted",
    "RetryingServeClient",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServiceHandle",
    "ThresholdQueryService",
    "TokenBucket",
    "chaos_in_thread",
    "execute_group",
    "serve_in_thread",
]
