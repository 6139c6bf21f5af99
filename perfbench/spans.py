"""In-memory span recording around the program's layers.

The benchmark measures layers from the outside: :func:`install_sweep`
and :func:`install_serve` replace module and class attributes of the
program with wrappers that record one span per call, so nothing under
``src/`` changes.  Each span is ``(sid, parent_sid, layer, name, start,
end, attrs)`` on ``time.monotonic`` (CLOCK_MONOTONIC, shared by every
process on the host, so spans from different processes line up).

Spans stay in memory.  Sweep worker processes are forked from a process
that already holds the wrappers; each shard ships the spans it recorded
home on its result (see :func:`install_shard_stamps`), and launchers
write everything out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

monotonic = time.monotonic


class Tracer:
    """Span and counter store for one process (reset in forked children)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._base = os.getpid() << 32
        self._local = threading.local()
        self._counts: List[Dict[str, int]] = []
        self._counts_lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to a counter (per thread, summed by :meth:`counts`)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._counts_lock:
                self._counts.append(counts)
        counts[key] = counts.get(key, 0) + n

    def counts(self) -> Dict[str, int]:
        """Every thread's counters, summed."""
        out: Dict[str, int] = {}
        with self._counts_lock:
            for counts in self._counts:
                for key, n in list(counts.items()):
                    out[key] = out.get(key, 0) + n
        return out

    def take_counts(self) -> Dict[str, int]:
        """:meth:`counts`, then zero them."""
        out = self.counts()
        with self._counts_lock:
            for counts in self._counts:
                counts.clear()
        return out

    def record(self, layer: str, name: str, start: float, end: float, **attrs: Any) -> None:
        """Add a finished top-level span measured elsewhere."""
        self.spans.append((self._base | next(self._ids), 0, layer, name, start, end, attrs))

    @contextlib.contextmanager
    def span(self, layer: str, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record the ``with`` body as one span; yields its attrs dict."""
        stack = self._stack()
        sid = self._base | next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = monotonic()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = monotonic()
            stack.pop()
            self.spans.append((sid, parent, layer, name, start, end, attrs))

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        *,
        before: Optional[Callable[..., Dict[str, Any]]] = None,
        after: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span per call.

        ``before(*args, **kwargs)`` and ``after(result)`` return extra
        span attributes.
        """
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(layer, name, **(before(*args, **kwargs) if before else {})) as attrs:
                result = fn(*args, **kwargs)
                if after is not None:
                    attrs.update(after(result))
                return result

        return wrapper


def _patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
    """Replace ``owner.attr`` with ``make(original)``.

    Class attributes are read with ``__dict__`` so static and class
    methods are rewrapped as what they were.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _decision_attrs(result: Any) -> Dict[str, Any]:
    return {"runs": len(result.queries), "queries": int(result.queries.sum())}


def install_compute(tracer: Tracer) -> None:
    """Wrap the compute layers shared by sweeps and the service.

    Layers: ``group_testing.vectorized`` (the batch deciders in ``core``),
    ``sim.fastseed``, ``sim.rng``, ``mac``, and ``core`` (the scalar
    deciders, with ``group_testing.model`` counted per query).
    """
    from repro.core.abns import ProbabilisticAbns
    from repro.core.base import ThresholdAlgorithm
    from repro.core.exponential import ExponentialIncrease
    from repro.core.probabilistic import ProbabilisticThreshold
    from repro.core.reliable import ReliableThreshold
    from repro.core.two_t_bins import TwoTBins
    from repro.group_testing import model
    from repro.mac import csma, tdma
    from repro.sim import fastseed, rng

    for cls in (TwoTBins, ExponentialIncrease, ProbabilisticThreshold):
        _patch(cls, "decide_batch", lambda f: tracer.wrap(
            "group_testing.vectorized", "decide_batch", f,
            before=lambda self, batch: {"runs": batch.runs},
            after=_decision_attrs,
        ))
    for attr in ("pcg64_states", "pcg64_raw", "pairs_from_raw"):
        _patch(fastseed, attr, lambda f: tracer.wrap("sim.fastseed", "states", f))
    _patch(fastseed, "choice_bulk", lambda f: tracer.wrap("sim.fastseed", "choice", f))
    _patch(rng.RngRegistry, "stream", lambda f: tracer.wrap("sim.rng", "stream", f))
    _patch(rng.RngRegistry, "fork", lambda f: tracer.wrap("sim.rng", "fork", f))
    slots = lambda result: {"slots": int(result.queries)}  # noqa: E731
    _patch(csma.CsmaBaseline, "decide", lambda f: tracer.wrap("mac", "csma", f, after=slots))
    _patch(tdma.SequentialOrdering, "decide", lambda f: tracer.wrap("mac", "tdma", f, after=slots))
    for cls in (ThresholdAlgorithm, ProbabilisticAbns, ReliableThreshold):
        _patch(cls, "decide", lambda f: tracer.wrap("core", "decide", f))

    def counted_query(f: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(f)
        def wrapper(self: Any, members: Any) -> Any:
            tracer.count("model.queries")
            return f(self, members)
        return wrapper

    def counted_batch(f: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(f)
        def wrapper(self: Any, bins: Any) -> Any:
            tracer.count("model.queries", len(bins))
            return f(self, bins)
        return wrapper

    _patch(model._BaseModel, "query", counted_query)
    _patch(model._BaseModel, "query_batch", counted_batch)


def install_shard_stamps(tracer: Tracer) -> None:
    """Stamp each shard's service time in the worker (on in every run).

    Wraps ``_run_sweep_cell_guarded``, the function the engine ships to
    its pool, so the shard's ``ShardOutcome`` carries its service
    interval home, together with the spans and counts a traced worker
    recorded for it.  Call before the worker pool forks.
    """
    from repro.experiments import common

    guarded = common._run_sweep_cell_guarded

    @functools.wraps(guarded)
    def stamped(task: Any) -> Any:
        mark = len(tracer.spans)
        start = monotonic()
        outcome = guarded(task)
        end = monotonic()
        payload: Dict[str, Any] = {
            "service": (start, end), "pid": os.getpid(), "ok": outcome.error_type is None,
        }
        if tracer.enabled:
            payload["spans"] = tracer.spans[mark:]
            payload["counts"] = tracer.take_counts()
            del tracer.spans[mark:]
        object.__setattr__(outcome, "_perfbench", payload)
        return outcome

    common._run_sweep_cell_guarded = stamped


def stamp_pool_submissions(tracer: Tracer) -> List[list]:
    """Stamp every pool submission and its completion on the engine side.

    Returns the shard records ``[submitted, done, service_start,
    service_end, worker_pid, ok]``, filled in as results arrive; worker
    spans and counts are merged into ``tracer``.  Call after the pool
    has started, so warm-up submissions are not recorded.
    """
    from concurrent.futures import ProcessPoolExecutor

    shards: List[list] = []
    submit = ProcessPoolExecutor.submit

    @functools.wraps(submit)
    def stamped_submit(self: Any, fn: Any, *args: Any, **kwargs: Any) -> Any:
        record: list = [monotonic(), None, None, None, None, False]
        future = submit(self, fn, *args, **kwargs)

        def done(fut: Any) -> None:
            record[1] = monotonic()
            if fut.cancelled() or fut.exception() is not None:
                return
            payload = getattr(fut.result(), "_perfbench", None)
            if payload is None:
                return
            record[2], record[3] = payload["service"]
            record[4], record[5] = payload["pid"], payload["ok"]
            if "spans" in payload:
                tracer.spans.extend(payload["spans"])
                for key, n in payload["counts"].items():
                    tracer.count(key, n)

        future.add_done_callback(done)
        shards.append(record)
        return future

    ProcessPoolExecutor.submit = stamped_submit  # type: ignore[method-assign]
    return shards


def install_sweep(tracer: Tracer) -> None:
    """Wrap the sweep layers: ``experiments`` (engine shards) and
    ``experiments.resilience`` (journal and supervised pool), plus the
    compute layers.  Call before the worker pool forks."""
    from repro.experiments import common, resilience

    install_compute(tracer)

    def shard_attrs(task: Any) -> Dict[str, Any]:
        return {"label": task.label, "x": task.x, "lo": task.run_lo,
                "hi": task.run_hi, "baseline": task.baseline}

    _patch(common, "_run_sweep_cell", lambda f: tracer.wrap(
        "experiments", "shard", f, before=shard_attrs))
    _patch(resilience, "run_supervised", lambda f: tracer.wrap(
        "experiments.resilience", "run_supervised", f))
    _patch(resilience.ShardJournal, "record", lambda f: tracer.wrap(
        "experiments.resilience", "journal_record", f))
    # Waiting on the pool is idle time, not work of the resilience layer.
    _patch(resilience, "wait", lambda f: tracer.wrap("idle", "pool_wait", f))


def install_serve(tracer: Tracer) -> None:
    """Wrap the service layers, plus the compute layers.

    ``serve.request`` (parse), ``serve.admission`` (admit),
    ``serve.scheduler`` (group claim; each claimed request's queue wait
    is recorded as its own span from its submit stamp) and
    ``serve.executor`` (one span per executed group).  ``serve.server``
    is what the client-measured latency leaves uncovered.
    """
    from repro.serve import admission, request, scheduler

    install_compute(tracer)
    _patch(request.QueryRequest, "from_wire", lambda f: tracer.wrap(
        "serve.request", "parse", f, after=lambda r: {"rid": r.id}))
    _patch(admission.AdmissionController, "admit", lambda f: tracer.wrap(
        "serve.admission", "admit", f,
        before=lambda self, req: {"rid": req.id},
        after=lambda reason: {"rejected": reason is not None}))

    def claim(f: Callable[..., Any]) -> Callable[..., Any]:
        traced = tracer.wrap("serve.scheduler", "claim", f, after=lambda group: {
            "rids": [item.request.id for item in group]})

        @functools.wraps(f)
        def wrapper(self: Any) -> Any:
            start = monotonic()
            group = traced(self)
            for item in group:
                tracer.record("serve.scheduler", "queue_wait", item.submitted, start,
                              rid=item.request.id)
            return group

        return wrapper

    _patch(scheduler.BatchScheduler, "_claim_group", claim)
    _patch(scheduler, "execute_group", lambda f: tracer.wrap(
        "serve.executor", "execute_group", f,
        before=lambda requests, **kw: {
            "rids": [r.id for r in requests],
            "runs": sum(r.runs for r in requests),
        },
        after=lambda outcomes: {"batched": bool(outcomes and outcomes[0].batched)},
    ))
