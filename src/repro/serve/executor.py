"""Executes coalesced request groups, bit-identical to solo execution.

The scheduler hands this module a *group*: one or more admitted requests
agreeing on :attr:`~repro.serve.request.QueryRequest.coalesce_key`
(population size, threshold, algorithm, collision model, reliability;
not x).  :func:`execute_group` answers all of them at once:

* The group is one
  :meth:`~repro.group_testing.vectorized.QueryBatch.spawned` batch with
  one ``(seed, runs, x)`` segment per request.  Each request keeps its
  *own* ``seed``-rooted spawn tree (the exact stream layout of
  :func:`repro.api.threshold_query_batch`) and its own x, which enters
  only its runs' population draws, so run ``r`` of request ``q``
  consumes the same generators whether ``q`` rides alone, with nine
  strangers, or on the scalar path -- coalescing is invisible in the
  answers, bit for bit.
* :func:`~repro.group_testing.vectorized.dispatch_batch` answers the
  batch in one call: on the vectorized kernel when the caller allows it
  and the decider has ``decide_batch`` (and the kernel accepts the
  batch), otherwise on the per-run scalar loop
  :func:`repro.api.threshold_query_batch` also runs, with
  :func:`repro.api.make_algorithm` applying any reliability layer as
  server-side degradation.

The module is synchronous and thread-safe (no shared mutable state):
the scheduler calls it from worker threads via an executor.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.api import make_algorithm
from repro.group_testing.model import ModelSpec
from repro.group_testing.vectorized import (
    BatchDecision,
    QueryBatch,
    dispatch_batch,
)
from repro.obs import get_registry
from repro.serve.errors import QueryExecutionError
from repro.serve.request import QueryRequest

_OBS = get_registry()
_BATCHES = _OBS.counter("serve.batches")
_BATCHED_REQUESTS = _OBS.counter("serve.batched_requests")
_SCALAR_FALLBACKS = _OBS.counter("serve.scalar_fallbacks")
_BATCH_RUNS = _OBS.histogram(
    "serve.batch.runs", edges=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
)


@dataclass(frozen=True)
class QueryOutcome:
    """The service-side answer to one request.

    Attributes:
        decisions: Per-run verdicts, in run order.
        queries: Per-run charged query counts.
        exact: Whether the algorithm is exact (always-correct).
        batched: Whether this request was answered on the vectorized
            kernel (``False`` means the scalar path ran).
    """

    decisions: Tuple[bool, ...]
    queries: Tuple[int, ...]
    exact: bool
    batched: bool


def _split(
    offsets: Sequence[int], decision: BatchDecision, *, batched: bool
) -> List[QueryOutcome]:
    """Slice a group's :class:`BatchDecision` back per request."""
    return [
        QueryOutcome(
            decisions=tuple(bool(d) for d in decision.decisions[lo:hi]),
            queries=tuple(int(q) for q in decision.queries[lo:hi]),
            exact=decision.exact,
            batched=batched,
        )
        for lo, hi in zip(offsets, offsets[1:])
    ]


def execute_group(
    requests: Sequence[QueryRequest], *, vectorize: bool = True
) -> List[QueryOutcome]:
    """Answer every request of one coalesced group.

    Args:
        requests: A non-empty group agreeing on ``coalesce_key``.
        vectorize: Allow the vectorized kernel, which then runs when the
            group's decider has ``decide_batch`` (tests and the benchmark
            force the scalar oracle with ``False``).

    Returns:
        One :class:`QueryOutcome` per request, in input order.

    Raises:
        ValueError: If the group is empty or mixes coalesce keys.
    """
    if not requests:
        raise ValueError("execute_group needs at least one request")
    lead = requests[0]
    for request in requests[1:]:
        if request.coalesce_key != lead.coalesce_key:
            raise ValueError(
                f"coalesce-key mismatch in group: {request.coalesce_key} "
                f"!= {lead.coalesce_key}"
            )
    # Request q owns the group-global runs offsets[q]:offsets[q + 1].
    offsets = list(accumulate((r.runs for r in requests), initial=0))
    _BATCHES.inc()
    _BATCH_RUNS.observe(float(offsets[-1]))
    batch = QueryBatch.spawned(
        segments=[(r.seed, r.runs, r.x) for r in requests],
        n=lead.n,
        threshold=lead.threshold,
        model=ModelSpec(kind=lead.collision_model),
    )
    try:
        algo = make_algorithm(lead.algorithm, reliable=lead.reliable)
        decision, path = dispatch_batch(
            algo,
            batch,
            vectorize=vectorize and hasattr(algo, "decide_batch"),
        )
    except Exception as exc:
        # A scalar run names its own request; anything else -- the kernel
        # fails the group as a unit, or the decider cannot be built --
        # blames the lead, the request whose claim formed the group.
        run = getattr(exc, "failed_run", None)
        culprit = (
            lead
            if run is None
            else requests[bisect.bisect_right(offsets, run) - 1]
        )
        raise QueryExecutionError(
            f"execution of request {culprit.id!r} in a "
            f"{len(requests)}-request group failed: {exc!r}",
            request_id=culprit.id,
        ) from exc
    if path == "kernel":
        _BATCHED_REQUESTS.inc(len(requests))
    elif path == "fallback":
        _SCALAR_FALLBACKS.inc()
    return _split(offsets, decision, batched=path == "kernel")
