"""Executes coalesced request groups, bit-identical to solo execution.

The scheduler hands this module a *group*: one or more admitted requests
agreeing on :attr:`~repro.serve.request.QueryRequest.coalesce_key`
(population shape, threshold, algorithm, collision model, reliability).
:func:`execute_group` answers all of them at once:

* The group's trials are concatenated into one
  :class:`~repro.group_testing.vectorized.QueryBatch`.  Each request
  keeps its *own* ``seed``-rooted spawn tree (the exact stream layout of
  :func:`repro.api.threshold_query_batch`), so run ``r`` of request
  ``q`` consumes the same generators whether ``q`` rides alone, with
  nine strangers, or on the scalar path -- coalescing is invisible in
  the answers, bit for bit.
* :func:`~repro.group_testing.vectorized.dispatch_batch` answers the
  batch in one call: on the vectorized kernel when the request is
  vectorizable and the kernel accepts it, otherwise on the per-run
  scalar loop :func:`repro.api.threshold_query_batch` also runs, with
  :func:`repro.api.make_algorithm` applying any reliability layer as
  server-side degradation.

The module is synchronous and thread-safe (no shared mutable state):
the scheduler calls it from worker threads via an executor.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.api import make_algorithm
from repro.group_testing.model import ModelSpec
from repro.group_testing.vectorized import (
    BatchDecision,
    QueryBatch,
    RunStreams,
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


class _ConcatStreams:
    """Maps a group-global run index onto the owning request's streams.

    Request boundaries are precomputed as cumulative offsets; lookup is
    a bisect plus the sub-batch's own ``streams`` call.  A class (not a
    closure) so the callable is introspectable and picklable.
    """

    def __init__(self, batches: Sequence[QueryBatch]) -> None:
        self._batches = list(batches)
        self._offsets: List[int] = []
        total = 0
        for batch in self._batches:
            self._offsets.append(total)
            total += batch.runs
        self.total = total

    def owner(self, run: int) -> int:
        """Index of the request that owns group-global run ``run``."""
        return bisect.bisect_right(self._offsets, run) - 1

    def __call__(self, run: int) -> RunStreams:
        """The ``(pop, model, bins)`` triple of group-global run ``run``."""
        idx = self.owner(run)
        return self._batches[idx].streams(run - self._offsets[idx])


def _model_spec(request: QueryRequest) -> ModelSpec:
    """The declarative model configuration shared by both paths."""
    return ModelSpec(kind=request.collision_model)


def _spawned_batch(request: QueryRequest) -> QueryBatch:
    """The request's private batch over its own spawn-tree streams."""
    return QueryBatch.spawned(
        seed=request.seed,
        n=request.n,
        x=request.x,
        threshold=request.threshold,
        runs=request.runs,
        model=_model_spec(request),
    )


def _split(
    requests: Sequence[QueryRequest], decision: BatchDecision, *, batched: bool
) -> List[QueryOutcome]:
    """Slice a concatenated :class:`BatchDecision` back per request."""
    outcomes: List[QueryOutcome] = []
    offset = 0
    for request in requests:
        stop = offset + request.runs
        outcomes.append(
            QueryOutcome(
                decisions=tuple(
                    bool(d) for d in decision.decisions[offset:stop]
                ),
                queries=tuple(int(q) for q in decision.queries[offset:stop]),
                exact=decision.exact,
                batched=batched,
            )
        )
        offset = stop
    return outcomes


def execute_group(
    requests: Sequence[QueryRequest], *, vectorize: bool = True
) -> List[QueryOutcome]:
    """Answer every request of one coalesced group.

    Args:
        requests: A non-empty group agreeing on ``coalesce_key``.
        vectorize: Allow the vectorized kernel (tests and the benchmark
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
    total_runs = sum(request.runs for request in requests)
    _BATCHES.inc()
    _BATCH_RUNS.observe(float(total_runs))
    streams = _ConcatStreams([_spawned_batch(r) for r in requests])
    combined = QueryBatch(
        n=lead.n,
        x=lead.x,
        threshold=lead.threshold,
        run_lo=0,
        run_hi=streams.total,
        model=_model_spec(lead),
        streams=streams,
    )
    try:
        algo = make_algorithm(lead.algorithm, reliable=lead.reliable)
        decision, path = dispatch_batch(
            algo, combined, vectorize=vectorize and lead.vectorizable
        )
    except Exception as exc:
        # A scalar run names its own request; anything else -- the kernel
        # fails the group as a unit, or the decider cannot be built --
        # blames the lead, the request whose claim formed the group.
        run = getattr(exc, "failed_run", None)
        culprit = lead if run is None else requests[streams.owner(run)]
        raise QueryExecutionError(
            f"execution of request {culprit.id!r} in a "
            f"{len(requests)}-request group failed: {exc!r}",
            request_id=culprit.id,
        ) from exc
    if path == "kernel":
        _BATCHED_REQUESTS.inc(len(requests))
    elif path == "fallback":
        _SCALAR_FALLBACKS.inc()
    return _split(requests, decision, batched=path == "kernel")
