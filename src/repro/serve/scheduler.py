"""The batching scheduler: coalesce compatible queries into shared rounds.

Admitted requests land in a single FIFO queue.  Worker coroutines pull
the oldest request, then sweep the rest of the queue for every other
request with the same :attr:`~repro.serve.request.QueryRequest.coalesce_key`
(up to ``max_batch_runs`` total trials) and execute the whole group in
one :func:`repro.serve.executor.execute_group` call on a thread-pool
executor -- the event loop stays responsive while numpy crunches.

Because every request owns a private seed-rooted stream tree, this
opportunistic coalescing is pure mechanical sympathy: batch composition
affects throughput, never answers (see :mod:`repro.serve.executor`).

Resilience (DESIGN.md section 17) is layered on the same loop:

* **Deadlines.**  A request carrying ``deadline_ms`` gets an absolute
  expiry stamped at :meth:`BatchScheduler.submit`.  Expired entries are
  purged from the queue (``serve.expired.queued``) on every claim and
  on every watchdog tick, so a request queued behind a long group still
  fails within one ``codel_interval_ms`` of its deadline; every claimed
  member is re-checked immediately before the thread-pool hop
  (``serve.expired.executing``).  Either way the request's future fails
  with :class:`~repro.serve.errors.DeadlineExceeded` and the front end
  renders a 504-style frame.
* **Supervision.**  Worker coroutines are supervised: an unexpected
  exception escaping a worker fails only the group it had claimed
  (each member's future gets a
  :class:`~repro.serve.errors.QueryExecutionError` naming the failing
  request, counted per member on ``serve.failed``), increments
  ``serve.worker_restarts``, and the worker is respawned.  A wedged or
  crashing executor therefore costs one group, never the daemon.
* **Watchdog.**  A periodic coroutine wakes every
  ``codel_interval_ms``, purges expired entries and, with CoDel on
  (``codel_target_ms > 0``), samples the queue-wait distribution: when
  the p50 wait exceeds ``codel_target_ms`` the scheduler is falling
  behind (slow executor, wedged pool thread) and the watchdog sheds
  from the *front* of the queue -- the requests that have already
  waited longest and are most likely to miss their deadlines anyway --
  failing each with :class:`~repro.serve.errors.CodelShed` (a 429 on
  the wire, counted on ``serve.rejected.codel``) until the median wait
  is back under target.

Lifecycle: :meth:`BatchScheduler.start` spawns the workers (tests may
enqueue first and start later to force specific coalescing),
:meth:`BatchScheduler.submit` returns a future per request, and
:meth:`BatchScheduler.drain` finishes queued work and stops the workers.
Latency from submit to completion is observed per request in the
``serve.latency_ms`` histogram; queue waits land in
``serve.queue_wait_ms``; batch sizes land in ``serve.batch.runs``.

All timing flows through an injectable monotonic ``clock`` so the
deadline and CoDel machinery is deterministic under test; only the
default argument references the host clock.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.obs import get_registry
from repro.serve.config import ServeConfig
from repro.serve.errors import CodelShed, DeadlineExceeded, QueryExecutionError
from repro.serve.executor import QueryOutcome, execute_group
from repro.serve.request import QueryRequest

_OBS = get_registry()
_COMPLETED = _OBS.counter("serve.completed")
_FAILED = _OBS.counter("serve.failed")
_EXPIRED_QUEUED = _OBS.counter("serve.expired.queued")
_EXPIRED_EXECUTING = _OBS.counter("serve.expired.executing")
_WORKER_RESTARTS = _OBS.counter("serve.worker_restarts")
_REJ_CODEL = _OBS.counter("serve.rejected.codel")
_LATENCY_MS = _OBS.histogram(
    "serve.latency_ms",
    edges=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0),
)
_QUEUE_WAIT_MS = _OBS.histogram(
    "serve.queue_wait_ms",
    edges=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0),
)


@dataclass
class _Item:
    """One queued unit of work.

    Attributes:
        request: The admitted request.
        future: Resolves to the request's :class:`QueryOutcome` (or an
            error from :mod:`repro.serve.errors`).
        submitted: Monotonic submit timestamp (latency accounting).
        expires: Absolute monotonic expiry, or ``None`` for no deadline.
    """

    request: QueryRequest
    future: "asyncio.Future[QueryOutcome]"
    submitted: float
    expires: Optional[float]


class _GroupFailure(Exception):
    """Internal: a claimed group's execution raised ``cause``.

    Carries the group so the supervisor can fail exactly its members;
    never escapes the scheduler.
    """

    def __init__(self, group: List[_Item], cause: BaseException) -> None:
        super().__init__(repr(cause))
        self.group = group
        self.cause = cause


class BatchScheduler:
    """Coalesces and executes admitted requests (see module docstring).

    Defaults are :class:`~repro.serve.config.ServeConfig`'s.

    Args:
        max_batch_runs: Cap on total trials per coalesced group.
        workers: Concurrent executor lanes (each drives one group at a
            time); also sizes the underlying thread pool.  With the one
            default lane, groups run back to back and each claim takes
            everything that queued behind the previous group.
        vectorize: Allow the vectorized kernel (``False`` forces the
            scalar oracle everywhere -- tests, benchmarks).
        clock: Monotonic time source for deadlines and queue waits
            (injected by tests; the default is the host clock).
        codel_target_ms: Queue-wait p50 above which the watchdog sheds
            from the front of the queue.  ``0`` disables the shedding
            (the watchdog still purges expired requests).
        codel_interval_ms: Watchdog period.
    """

    def __init__(
        self,
        *,
        max_batch_runs: int = ServeConfig.max_batch_runs,
        workers: int = ServeConfig.workers,
        vectorize: bool = ServeConfig.vectorize,
        clock: Callable[[], float] = time.monotonic,
        codel_target_ms: float = ServeConfig.codel_target_ms,
        codel_interval_ms: float = ServeConfig.codel_interval_ms,
    ) -> None:
        if max_batch_runs < 1:
            raise ValueError(f"max_batch_runs must be >= 1, got {max_batch_runs}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if codel_target_ms < 0:
            raise ValueError(
                f"codel_target_ms must be >= 0, got {codel_target_ms}"
            )
        if codel_interval_ms <= 0:
            raise ValueError(
                f"codel_interval_ms must be > 0, got {codel_interval_ms}"
            )
        self.max_batch_runs = max_batch_runs
        self.vectorize = vectorize
        self.codel_target_ms = codel_target_ms
        self.codel_interval_ms = codel_interval_ms
        self._clock = clock
        self._queue: Deque[_Item] = deque()
        self._wakeup = asyncio.Event()
        self._workers: List["asyncio.Task[None]"] = []
        self._watchdog: Optional["asyncio.Task[None]"] = None
        self._worker_count = workers
        self._worker_serial = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the (supervised) workers on the running event loop."""
        if self._workers:
            raise RuntimeError("scheduler already started")
        self._stopping = False
        self._pool = ThreadPoolExecutor(
            max_workers=self._worker_count,
            thread_name_prefix="serve-exec",
        )
        for _ in range(self._worker_count):
            self._spawn_worker()
        self._watchdog = asyncio.get_running_loop().create_task(
            self._watch(), name="serve-watchdog"
        )

    async def drain(self) -> None:
        """Finish all queued work, then stop the workers.

        Safe to call more than once.  New :meth:`submit` calls after the
        drain began fail fast (admission should already shed them).
        """
        self._stopping = True
        self._wakeup.set()
        # Workers may respawn while failing groups mid-drain; gather
        # until the supervised set is empty (respawns stop once
        # _stopping is set).
        while self._workers:
            await asyncio.gather(*tuple(self._workers), return_exceptions=True)
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
            self._watchdog = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- submission --------------------------------------------------------

    def submit(self, request: QueryRequest) -> "asyncio.Future[QueryOutcome]":
        """Enqueue one admitted request; the future resolves to its answer.

        A request carrying ``deadline_ms`` gets its absolute expiry
        stamped here: the budget covers queueing *and* execution.
        """
        if self._stopping:
            raise RuntimeError("scheduler is draining; admission should shed")
        future: "asyncio.Future[QueryOutcome]" = (
            asyncio.get_running_loop().create_future()
        )
        now = self._clock()
        expires = (
            None
            if request.deadline_ms is None
            else now + request.deadline_ms / 1e3
        )
        self._queue.append(_Item(request, future, now, expires))
        self._wakeup.set()
        return future

    @property
    def backlog(self) -> int:
        """Requests enqueued but not yet claimed by a worker."""
        return len(self._queue)

    # -- deadline / shed plumbing ------------------------------------------

    def _expire(self, item: _Item, *, stage: str) -> None:
        """Fail one expired item with a 504-style deadline error."""
        if stage == "queued":
            _EXPIRED_QUEUED.inc()
        else:
            _EXPIRED_EXECUTING.inc()
        _FAILED.inc()
        if not item.future.done():
            item.future.set_exception(
                DeadlineExceeded(
                    f"request {item.request.id!r} exceeded its "
                    f"{item.request.deadline_ms}ms deadline while {stage}",
                    stage=stage,
                )
            )

    def _shed_codel(self, item: _Item) -> None:
        """Fail one watchdog-shed item with a 429-style codel error."""
        _REJ_CODEL.inc()
        _FAILED.inc()
        if not item.future.done():
            item.future.set_exception(
                CodelShed(
                    f"request {item.request.id!r} shed after "
                    f"{(self._clock() - item.submitted) * 1e3:.0f}ms queued "
                    f"(queue-wait p50 over {self.codel_target_ms:.0f}ms target)"
                )
            )

    # -- workers -----------------------------------------------------------

    def _purge_expired(self, now: float) -> None:
        """Fail every queued item whose deadline has passed by ``now``
        (``serve.expired.queued``); the rest keep their order."""
        for _ in range(len(self._queue)):
            item = self._queue.popleft()
            if item.expires is not None and item.expires <= now:
                self._expire(item, stage="queued")
            else:
                self._queue.append(item)

    def _claim_group(self) -> List[_Item]:
        """Pop the oldest live item plus every coalescable follower.

        Expired entries are purged first; then one linear sweep claims
        the followers sharing the leader's coalesce key (preserving
        order) until the group's total runs would exceed
        ``max_batch_runs``, and everything else keeps its queue
        position.
        """
        now = self._clock()
        self._purge_expired(now)
        if not self._queue:
            return []
        lead = self._queue.popleft()
        _QUEUE_WAIT_MS.observe((now - lead.submitted) * 1e3)
        group = [lead]
        budget = self.max_batch_runs - lead.request.runs
        keep: List[_Item] = []
        while self._queue:
            item = self._queue.popleft()
            if (
                item.request.coalesce_key == lead.request.coalesce_key
                and item.request.runs <= budget
            ):
                _QUEUE_WAIT_MS.observe((now - item.submitted) * 1e3)
                group.append(item)
                budget -= item.request.runs
            else:
                keep.append(item)
        self._queue.extend(keep)
        return group

    def _spawn_worker(self) -> None:
        """Create one supervised worker task."""
        serial = self._worker_serial
        self._worker_serial += 1
        task = asyncio.get_running_loop().create_task(
            self._work(), name=f"serve-worker-{serial}"
        )
        self._workers.append(task)
        task.add_done_callback(self._on_worker_done)

    def _on_worker_done(self, task: "asyncio.Task[None]") -> None:
        """Supervisor: fail the dead worker's group, respawn the lane.

        A clean return (drain) or cancellation removes the lane.  Any
        exception means the lane died mid-work: if it carried a claimed
        group (:class:`_GroupFailure`) every member's future is failed
        with a :class:`QueryExecutionError` naming the failing request,
        ``serve.failed`` counts each member, ``serve.worker_restarts``
        counts the lane, and -- unless the scheduler is draining -- a
        fresh worker takes its place.
        """
        try:
            self._workers.remove(task)
        except ValueError:  # pragma: no cover - defensive; never spawned twice
            pass
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        if isinstance(exc, _GroupFailure):
            cause = exc.cause
            failing_id = (
                cause.request_id
                if isinstance(cause, QueryExecutionError)
                else None
            )
            for item in exc.group:
                _FAILED.inc()
                if item.future.done():
                    continue
                if (
                    isinstance(cause, QueryExecutionError)
                    and failing_id == item.request.id
                ):
                    item.future.set_exception(cause)
                else:
                    blame = (
                        f"request {failing_id!r}"
                        if failing_id is not None
                        else "a coalesced sibling"
                    )
                    item.future.set_exception(
                        QueryExecutionError(
                            f"request {item.request.id!r} failed because "
                            f"{blame} raised in its group of "
                            f"{len(exc.group)}: {cause!r}",
                            request_id=item.request.id,
                        )
                    )
        _WORKER_RESTARTS.inc()
        if not self._stopping:
            self._spawn_worker()
        else:
            # Keep the drain loop honest: a lane dying mid-drain still
            # wakes any gatherer waiting on the old task set.
            self._wakeup.set()

    async def _work(self) -> None:
        """One worker lane: claim a group, execute it, deliver answers.

        Exceptions escaping this coroutine are the supervisor's problem
        (:meth:`_on_worker_done`): execution failures are wrapped in
        :class:`_GroupFailure` so only the claimed group pays for them.
        """
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                if self._stopping:
                    return
                self._wakeup.clear()
                if self._queue or self._stopping:
                    continue
                await self._wakeup.wait()
                continue
            group = self._claim_group()
            if not group:
                continue
            # Deadline re-check at the thread-pool hop, the last point
            # at which shedding is still cheap.
            now = self._clock()
            live: List[_Item] = []
            for item in group:
                if item.expires is not None and item.expires <= now:
                    self._expire(item, stage="executing")
                else:
                    live.append(item)
            if not live:
                continue
            requests = [item.request for item in live]
            assert self._pool is not None
            try:
                outcomes = await loop.run_in_executor(
                    self._pool,
                    self._execute,
                    requests,
                )
            except Exception as exc:
                raise _GroupFailure(live, exc) from exc
            now = self._clock()
            for item, outcome in zip(live, outcomes):
                _COMPLETED.inc()
                _LATENCY_MS.observe((now - item.submitted) * 1e3)
                if not item.future.done():
                    item.future.set_result(outcome)

    def _execute(self, requests: List[QueryRequest]) -> List[QueryOutcome]:
        """Thread-pool entry: run one coalesced group to completion."""
        return execute_group(requests, vectorize=self.vectorize)

    # -- watchdog ----------------------------------------------------------

    def _codel_tick(self) -> int:
        """One watchdog sample: shed from the front while p50 is over target.

        Returns:
            The number of requests shed this tick.
        """
        if not self._queue:
            return 0
        now = self._clock()
        waits = sorted((now - item.submitted) * 1e3 for item in self._queue)
        if waits[len(waits) // 2] <= self.codel_target_ms:
            return 0
        shed = 0
        # Drop-from-front: the oldest entries carry the largest waits;
        # shedding them is what actually moves the median.
        while self._queue:
            waits = sorted(
                (now - item.submitted) * 1e3 for item in self._queue
            )
            if waits[len(waits) // 2] <= self.codel_target_ms:
                break
            self._shed_codel(self._queue.popleft())
            shed += 1
        return shed

    async def _watch(self) -> None:
        """The watchdog loop (see module docstring): each tick purges
        expired requests, then sheds by CoDel when it is on."""
        interval = self.codel_interval_ms / 1e3
        while not self._stopping:
            await asyncio.sleep(interval)
            if self._queue:
                self._purge_expired(self._clock())
            if self.codel_target_ms > 0:
                self._codel_tick()
