"""The batching scheduler: coalesce compatible queries into shared rounds.

Admitted requests land in a single FIFO queue.  Lane coroutines pull
the oldest request, then sweep the rest of the queue for every other
request with the same :attr:`~repro.serve.request.QueryRequest.coalesce_key`
(up to the config's ``max_batch_runs`` total trials) and execute the
whole group in one :func:`repro.serve.executor.execute_group` call.  A
group within :func:`~repro.serve.executor.runs_inline`'s bound
(measured to finish within a quarter of the default watchdog interval)
runs on the event-loop thread, which then yields once so its answers
go out and the sockets are read before the next claim; a bigger group
runs on the executor's thread, so the loop and its watchdog stay
responsive while numpy crunches.  Each route counts its
groups (``serve.executor.inline`` / ``serve.executor.offloaded``; the
two sum to ``serve.batches``).

Because every request owns a private seed-rooted stream tree, this
opportunistic coalescing is pure mechanical sympathy: batch composition
affects throughput, never answers (see :mod:`repro.serve.executor`).

Resilience (DESIGN.md section 17) is layered on the same loop:

* **Deadlines.**  A request carrying ``deadline_ms`` gets an absolute
  expiry stamped at :meth:`BatchScheduler.submit`.  Expired entries are
  purged from the queue (``serve.expired.queued``) on every claim and
  on every watchdog tick, so a request queued behind a long group still
  fails within one ``codel_interval_ms`` (plus at most one inline
  group) of its deadline; every claimed member is re-checked
  immediately before execution, on either route
  (``serve.expired.executing``).  Either way the request's future fails
  with :class:`~repro.serve.errors.DeadlineExceeded` and the front end
  renders a 504-style frame.
* **Failed groups.**  A lane whose group raises fails that group's
  members itself and keeps claiming: each member's future gets a
  :class:`~repro.serve.errors.QueryExecutionError` naming the failing
  request, counted per member on ``serve.failed``.  A crashing
  executor therefore costs one group, never a lane or the daemon.
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

Lifecycle: :meth:`BatchScheduler.start` creates the lanes (tests may
enqueue first and start later to force specific coalescing),
:meth:`BatchScheduler.submit` returns a future per request, and
:meth:`BatchScheduler.drain` finishes queued work and stops the lanes.
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
from repro.serve.executor import QueryOutcome, execute_group, runs_inline
from repro.serve.request import QueryRequest

_OBS = get_registry()
_COMPLETED = _OBS.counter("serve.completed")
_FAILED = _OBS.counter("serve.failed")
_EXPIRED_QUEUED = _OBS.counter("serve.expired.queued")
_EXPIRED_EXECUTING = _OBS.counter("serve.expired.executing")
_REJ_CODEL = _OBS.counter("serve.rejected.codel")
_INLINE = _OBS.counter("serve.executor.inline")
_OFFLOADED = _OBS.counter("serve.executor.offloaded")
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


class BatchScheduler:
    """Coalesces and executes admitted requests (see module docstring).

    It reads these :class:`~repro.serve.config.ServeConfig` fields:

    * ``workers`` -- executor lanes, each driving one group at a time;
      also the size of the lanes' thread pool.  With the one default
      lane, groups run back to back and each claim takes everything
      that queued behind the previous group.  Groups within the inline
      bound run on the event-loop thread, one at a time whatever
      ``workers`` is; only bigger groups run concurrently, on the
      pool's threads.
    * ``max_batch_runs`` -- cap on total trials per coalesced group.
    * ``vectorize`` -- allow the vectorized kernel (``False`` forces the
      scalar oracle everywhere -- tests, benchmarks).
    * ``codel_target_ms`` -- queue-wait p50 above which the watchdog
      sheds from the front of the queue; ``0`` disables the shedding
      (the watchdog still purges expired requests).
    * ``codel_interval_ms`` -- the watchdog period.

    Args:
        config: The service configuration.
        clock: Monotonic time source for deadlines and queue waits
            (injected by tests; the default is the host clock).
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self._queue: Deque[_Item] = deque()
        self._wakeup = asyncio.Event()
        self._lanes: List["asyncio.Task[None]"] = []
        self._watchdog: Optional["asyncio.Task[None]"] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Create the lanes and the watchdog on the running event loop."""
        if self._lanes:
            raise RuntimeError("scheduler already started")
        self._stopping = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="serve-exec",
        )
        loop = asyncio.get_running_loop()
        self._lanes = [
            loop.create_task(self._work(), name=f"serve-lane-{i}")
            for i in range(self.config.workers)
        ]
        self._watchdog = loop.create_task(self._watch(), name="serve-watchdog")

    async def drain(self) -> None:
        """Finish all queued work, then stop the lanes.

        Safe to call more than once.  New :meth:`submit` calls after the
        drain began fail fast (admission should already shed them).
        """
        self._stopping = True
        self._wakeup.set()
        await asyncio.gather(*self._lanes, return_exceptions=True)
        self._lanes = []
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
        """Requests enqueued but not yet claimed by a lane."""
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
                    f"(queue-wait p50 over {self.config.codel_target_ms:.0f}ms "
                    "target)"
                )
            )

    # -- lanes -------------------------------------------------------------

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
        budget = self.config.max_batch_runs - lead.request.runs
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

    def _fail_group(self, group: List[_Item], cause: Exception) -> None:
        """Fail every member of a group whose execution raised ``cause``.

        A :class:`QueryExecutionError` names its culprit, which gets
        that error itself; every other member gets a
        :class:`QueryExecutionError` of its own naming the culprit (or
        "a coalesced sibling" when the cause names none).
        ``serve.failed`` counts each member.
        """
        culprit = (
            cause.request_id if isinstance(cause, QueryExecutionError) else None
        )
        blame = (
            f"request {culprit!r}" if culprit is not None else "a coalesced sibling"
        )
        for item in group:
            _FAILED.inc()
            if item.future.done():
                continue
            if culprit is not None and culprit == item.request.id:
                item.future.set_exception(cause)
            else:
                item.future.set_exception(
                    QueryExecutionError(
                        f"request {item.request.id!r} failed because "
                        f"{blame} raised in its group of {len(group)}: "
                        f"{cause!r}",
                        request_id=item.request.id,
                    )
                )

    async def _work(self) -> None:
        """One lane: claim a group, execute it, deliver its answers.

        A group whose execution raises is failed here
        (:meth:`_fail_group`) and the lane goes on claiming.
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
            # Deadline re-check just before execution, the last point at
            # which shedding is still cheap.
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
            try:
                if runs_inline(requests, vectorize=self.config.vectorize):
                    _INLINE.inc()
                    outcomes = self._execute(requests)
                else:
                    _OFFLOADED.inc()
                    assert self._pool is not None
                    outcomes = await loop.run_in_executor(
                        self._pool,
                        self._execute,
                        requests,
                    )
            except Exception as exc:
                self._fail_group(live, exc)
            else:
                now = self._clock()
                for item, outcome in zip(live, outcomes):
                    _COMPLETED.inc()
                    _LATENCY_MS.observe((now - item.submitted) * 1e3)
                    if not item.future.done():
                        item.future.set_result(outcome)
            # An inline group held the loop: let the answers be written
            # and the sockets read before the next claim.
            await asyncio.sleep(0)

    def _execute(self, requests: List[QueryRequest]) -> List[QueryOutcome]:
        """Run one coalesced group to completion (on the loop's thread or
        the pool's, as :meth:`_work` routes it)."""
        return execute_group(requests, vectorize=self.config.vectorize)

    # -- watchdog ----------------------------------------------------------

    def _codel_tick(self) -> int:
        """One watchdog sample: shed from the front while p50 is over target.

        The queue is in submit order (stamps come from a monotonic
        clock; claims and purges keep the order), so waits fall from
        front to back and the median wait -- the upper one of an even
        count -- is the entry ``(len - 1) // 2`` from the front.
        Dropping from the front sheds the oldest entries, the ones most
        likely to miss their deadlines anyway, and moves that median.

        Returns:
            The number of requests shed this tick.
        """
        queue = self._queue
        if not queue:
            return 0
        now = self._clock()
        target = self.config.codel_target_ms
        shed = 0
        while queue and (now - queue[(len(queue) - 1) // 2].submitted) * 1e3 > target:
            self._shed_codel(queue.popleft())
            shed += 1
        return shed

    async def _watch(self) -> None:
        """The watchdog loop (see module docstring): each tick purges
        expired requests, then sheds by CoDel when it is on."""
        interval = self.config.codel_interval_ms / 1e3
        while not self._stopping:
            await asyncio.sleep(interval)
            if self._queue:
                self._purge_expired(self._clock())
            if self.config.codel_target_ms > 0:
                self._codel_tick()
