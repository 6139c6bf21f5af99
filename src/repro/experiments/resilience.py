# tcast-lint: disable-file=TCL002 -- supervision deadlines, stall detection and backoff are real harness time (worker processes hang in wall-clock time), never simulated time
"""Crash-safe sweep execution: shard journal, worker supervision, shutdown.

PR 1 made the simulated *protocol* fault-tolerant; this module makes the
*execution harness* fault-tolerant, with the same determinism guarantee:
a resumed sweep is bit-identical to an uninterrupted one.  Three pieces:

**Shard journal** (:class:`ShardJournal`).  Every completed
``(label, x, run-block)`` shard is appended to an on-disk journal as one
CRC32-framed JSON record (see :mod:`repro.experiments.atomicio`), flushed
to the kernel before the run moves on (fsync is batched on a time
cadence; see :class:`ShardJournal`).  ``tcast-experiments run --resume``
reloads the journal and skips every cell whose runs are already recorded;
because shard costs derive statelessly from ``(seed, label, x, run)``,
the stitched-together result is byte-identical to an uninterrupted run.
Records are keyed per *run*, not per shard, so a resume with a different
``--jobs`` (different shard boundaries) still reuses everything covered.
A torn tail -- crash mid-append -- fails its CRC and is dropped on load;
the journal is then compacted with an atomic ``tmp + os.replace``.

**Worker supervision** (:func:`run_supervised`).  The parallel sweep path
submits shards through a supervised loop that detects crashed workers
(:class:`~concurrent.futures.process.BrokenProcessPool` -- ``kill -9``,
OOM) and hung workers (no shard completion within a stall deadline
derived from the ``sweep.shard_seconds`` observation histogram), recycles
the poisoned pool, and requeues the lost shards with exponential backoff.
A shard that fails more than :attr:`SupervisionPolicy.max_retries` times
is *quarantined*: the run completes with an explicit degraded report
instead of dying.  A shard that *raises* (a bug, not an infrastructure
failure) aborts immediately with the full remote traceback and the
failing coordinates -- never a bare ``BrokenProcessPool``.

**Graceful shutdown** (:class:`GracefulShutdown`).  SIGINT/SIGTERM raise
:class:`GracefulExit` in the main thread; the supervised loop drains
in-flight shards for a bounded grace period (journalling each), the CLI
flushes the journal and metrics snapshot, and prints the exact
``--resume`` command.  A second signal kills the process immediately.

The supervision state machine::

    SUBMITTED --completed--> JOURNALLED
        |                        ^
        |--worker crash/stall----|--retry <= max_retries--> REQUEUED
        |                        |
        |                        +--retry >  max_retries--> QUARANTINED
        +--in-shard exception--> ABORT (ShardExecutionError, remote tb)

Activation is context-based: the CLI (or a test) builds a
:class:`RunContext` and enters :func:`activate`; the sweep engine in
:mod:`repro.experiments.common` picks it up via :func:`current_context`.
Callers that never activate a context are supervised all the same: the
engine builds a journal-less context for each batch, and raises once the
batch finishes if a shard was quarantined, since no caller reads that
context's degraded report.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.atomicio import (
    atomic_write_text,
    checksum_line,
    parse_checksum_line,
)
from repro.obs import MetricsSnapshot, get_registry

#: Import-time instruments (inert until metrics are enabled).
_OBS = get_registry()
_R_JOURNAL_RECORDS = _OBS.counter("resilience.journal_records")
_R_RESUMED_RECORDS = _OBS.counter("resilience.journal_resumed_records")
_R_DROPPED_RECORDS = _OBS.counter("resilience.journal_dropped_records")
_R_RESUME_SKIPS = _OBS.counter("resilience.resume_skips")
_R_REQUEUES = _OBS.counter("resilience.requeues")
_R_QUARANTINED = _OBS.counter("resilience.quarantined_shards")
_R_WORKER_FAILURES = _OBS.counter("resilience.worker_failures")
_R_STALLS = _OBS.counter("resilience.stalls")
_R_POOL_RECYCLES = _OBS.counter("resilience.pool_recycles")
_R_GRACEFUL_EXITS = _OBS.counter("resilience.graceful_exits")
_R_DRAIN_LOSSES = _OBS.counter("resilience.drain_losses")
_R_JOURNAL_TIMER = _OBS.timer("resilience.journal_write")

_LOG = logging.getLogger(__name__)

#: Journal file format version (bumped on incompatible record changes).
JOURNAL_FORMAT = 1

#: Cold-start no-progress deadline, in seconds.  Applied by
#: :meth:`SupervisionPolicy.stall_deadline` when *no* shard duration has
#: been observed anywhere -- metrics collection disabled, or the
#: ``sweep.shard_seconds`` histogram still empty at the very start of a
#: run.  It must be generous: with nothing observed there is no basis to
#: distinguish a slow first shard from a hung pool, and a premature
#: recycle on a cold cache costs far more than five idle minutes.  The
#: fallback is logged once per process so operators can tell a
#: cold-start deadline apart from an adaptive one.
STALL_COLD_START_DEFAULT = 300.0

#: Process-wide flag so the cold-start fallback is logged exactly once.
_stall_cold_start_logged = False


class GracefulExit(BaseException):
    """Raised in the main thread when SIGINT/SIGTERM requests shutdown.

    Derives from :class:`BaseException` (like :class:`KeyboardInterrupt`)
    so ordinary ``except Exception`` recovery code cannot swallow it.
    """

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(f"graceful shutdown requested ({signal.Signals(signum).name})")


class ShardExecutionError(RuntimeError):
    """A sweep shard raised inside a worker process.

    Carries the failing ``(label, x, run-block)`` coordinates and the
    full remote traceback, so the parent's error message is actionable
    instead of a bare :class:`BrokenProcessPool`.
    """

    def __init__(
        self,
        label: str,
        x: int,
        run_lo: int,
        run_hi: int,
        error_type: str,
        remote_traceback: str,
    ) -> None:
        self.label = label
        self.x = x
        self.run_lo = run_lo
        self.run_hi = run_hi
        self.error_type = error_type
        self.remote_traceback = remote_traceback
        super().__init__(
            f"shard {label!r} x={x} runs [{run_lo},{run_hi}) raised "
            f"{error_type} in a worker process; remote traceback:\n"
            f"{remote_traceback}"
        )


@dataclass(frozen=True)
class ShardOutcome:
    """What one guarded shard execution produced (picklable).

    Exactly one of ``costs`` / ``error_type`` is set: workers catch every
    in-shard exception and ship it home as a formatted traceback rather
    than letting an unpicklable exception take down the pool channel.
    """

    costs: Optional[List[float]] = None
    snapshot: Optional[MetricsSnapshot] = None
    error_type: Optional[str] = None
    remote_traceback: Optional[str] = None


def shard_coords(task: Any) -> Tuple[str, int, int, int]:
    """``(label, x, run_lo, run_hi)`` of a sweep task (duck-typed)."""
    return (
        str(getattr(task, "label", "?")),
        int(getattr(task, "x", -1)),
        int(getattr(task, "run_lo", -1)),
        int(getattr(task, "run_hi", -1)),
    )


# ---------------------------------------------------------------------------
# Shard journal
# ---------------------------------------------------------------------------


class ShardJournal:
    """A crash-safe, append-only record of completed sweep shards.

    File layout: a CRC32-framed header line identifying ``(format,
    exp_id, key)`` followed by one CRC32-framed JSON record per completed
    shard (``label``, ``x``, ``lo``, ``hi``, per-run ``costs``).  Appends
    are flushed so a completed shard survives ``kill -9`` of the run,
    with fsync batched per ``fsync_interval`` against host failure; the
    file itself is created (and compacted after torn-tail repair) via
    atomic ``tmp + os.replace``.

    Records are merged into a per-``(label, x)`` run -> cost map, so
    :meth:`lookup` can answer for *any* shard boundaries, not just the
    ones the interrupted run happened to use.

    Args:
        path: Journal file location.
        exp_id: Experiment the journal belongs to.
        key: Content key of the computation (same derivation as the
            result cache: config + seed + code fingerprint), so a stale
            journal can never leak records into a different computation.
        resume: Load existing records (``--resume``); otherwise any
            existing file for this key is discarded.
        fsync: Fsync the journal (disable only in tests).
        fsync_interval: Minimum seconds between fsyncs.  Every append is
            flushed to the kernel immediately (so a completed shard
            survives any *process* death, ``kill -9`` included); the
            fsync -- which guards against host/power failure -- is
            batched to at most one per interval, plus one on close,
            keeping the fault-free journal overhead bounded.  A record
            lost to a host crash inside the interval simply fails its
            CRC (or is absent) and gets recomputed on ``--resume``.
    """

    def __init__(
        self,
        path: os.PathLike | str,
        *,
        exp_id: str,
        key: str,
        resume: bool = False,
        fsync: bool = True,
        fsync_interval: float = 2.0,
    ) -> None:
        self._path = Path(path)
        self._exp_id = exp_id
        self._key = key
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._last_fsync = 0.0
        self._fh: Optional[Any] = None
        self._cells: Dict[Tuple[str, int], Dict[int, float]] = {}
        self.appended_records = 0
        self.resumed_records = 0
        self.dropped_records = 0
        #: Quarantine records seen (loaded plus appended this run).
        #: Quarantines are *advisory*: a resumed run retries the shard
        #: from scratch (fresh workers may well succeed where a sick
        #: host gave up), the record only documents the prior failure.
        self.quarantined_records = 0
        if resume:
            self._load()
        elif self._path.exists():
            self._path.unlink()

    @property
    def path(self) -> Path:
        """The journal file location."""
        return self._path

    def _header_payload(self) -> str:
        return json.dumps(
            {"format": JOURNAL_FORMAT, "exp_id": self._exp_id, "key": self._key},
            sort_keys=True,
            separators=(",", ":"),
        )

    def _load(self) -> None:
        """Replay a journal from disk, dropping torn or corrupt records."""
        if not self._path.exists():
            return
        lines = self._path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return
        header = parse_checksum_line(lines[0])
        if header is None:
            self.dropped_records += len(lines)
            _R_DROPPED_RECORDS.inc(len(lines))
            self._path.unlink()
            return
        try:
            meta = json.loads(header)
        except ValueError:
            meta = None
        if (
            not isinstance(meta, dict)
            or meta.get("format") != JOURNAL_FORMAT
            or meta.get("exp_id") != self._exp_id
            or meta.get("key") != self._key
        ):
            # A journal for a different computation (code or config
            # changed since the crash): start fresh rather than resume
            # records that no longer mean anything.
            self._path.unlink()
            return
        valid_payloads: List[str] = []
        for line in lines[1:]:
            payload = parse_checksum_line(line)
            if payload is not None and self._parse_quarantine(payload):
                # Prior-run quarantine: keep the record (post-mortem
                # trail) but do not skip the shard -- resume retries it.
                self.quarantined_records += 1
                valid_payloads.append(payload)
                continue
            record = self._parse_record(payload) if payload is not None else None
            if record is None:
                self.dropped_records += 1
                _R_DROPPED_RECORDS.inc()
                continue
            label, x, lo, costs = record
            cell = self._cells.setdefault((label, x), {})
            for offset, cost in enumerate(costs):
                cell[lo + offset] = cost
            self.resumed_records += 1
            _R_RESUMED_RECORDS.inc()
            assert payload is not None
            valid_payloads.append(payload)
        if self.dropped_records:
            # Compact: rewrite only the valid prefix atomically so the
            # next append lands on a clean file.
            text = checksum_line(self._header_payload()) + "".join(
                checksum_line(p) for p in valid_payloads
            )
            atomic_write_text(self._path, text, fsync=self._fsync)

    @staticmethod
    def _parse_quarantine(payload: str) -> bool:
        """Whether a framed payload is a well-formed quarantine record."""
        try:
            data = json.loads(payload)
        except ValueError:
            return False
        return (
            isinstance(data, dict)
            and data.get("kind") == "quarantine"
            and all(k in data for k in ("label", "x", "lo", "hi", "reason"))
        )

    @staticmethod
    def _parse_record(
        payload: str,
    ) -> Optional[Tuple[str, int, int, List[float]]]:
        try:
            data = json.loads(payload)
            label = str(data["label"])
            x = int(data["x"])
            lo = int(data["lo"])
            hi = int(data["hi"])
            costs = [float(c) for c in data["costs"]]
        except (ValueError, KeyError, TypeError):
            return None
        if hi - lo != len(costs):
            return None
        return label, x, lo, costs

    def _open(self) -> Any:
        if self._fh is None:
            if not self._path.exists():
                atomic_write_text(
                    self._path,
                    checksum_line(self._header_payload()),
                    fsync=self._fsync,
                )
            self._fh = open(self._path, "a", encoding="utf-8")
        return self._fh

    def record(
        self, label: str, x: int, lo: int, hi: int, costs: Sequence[float]
    ) -> None:
        """Durably append one completed shard (flush + batched fsync)."""
        payload = json.dumps(
            {"label": label, "x": int(x), "lo": int(lo), "hi": int(hi),
             "costs": [float(c) for c in costs]},
            separators=(",", ":"),
        )
        with _R_JOURNAL_TIMER.time():
            fh = self._open()
            fh.write(checksum_line(payload))
            fh.flush()
            now = time.monotonic()
            if self._fsync and now - self._last_fsync >= self._fsync_interval:
                os.fsync(fh.fileno())
                self._last_fsync = now
        cell = self._cells.setdefault((label, int(x)), {})
        for offset, cost in enumerate(costs):
            cell[int(lo) + offset] = float(cost)
        self.appended_records += 1
        _R_JOURNAL_RECORDS.inc()

    def record_quarantine(
        self, label: str, x: int, lo: int, hi: int, reason: str
    ) -> None:
        """Durably append a quarantine record for a given-up shard.

        Quarantine records share the journal's CRC framing and survive
        compaction, but never satisfy :meth:`lookup`: a later
        ``--resume`` retries the shard from scratch.  They feed the
        degraded/quarantined counts of ``tcast-experiments journal
        info`` so an operator can see *why* a crashed run was degraded
        without reconstructing it from logs.
        """
        payload = json.dumps(
            {"kind": "quarantine", "label": label, "x": int(x),
             "lo": int(lo), "hi": int(hi), "reason": str(reason)},
            separators=(",", ":"),
        )
        with _R_JOURNAL_TIMER.time():
            fh = self._open()
            fh.write(checksum_line(payload))
            fh.flush()
            now = time.monotonic()
            if self._fsync and now - self._last_fsync >= self._fsync_interval:
                os.fsync(fh.fileno())
                self._last_fsync = now
        self.quarantined_records += 1

    def lookup(
        self, label: str, x: int, lo: int, hi: int
    ) -> Optional[List[float]]:
        """Recorded per-run costs for ``[lo, hi)``, or ``None`` if any
        run in the range is missing (shard must then be recomputed)."""
        cell = self._cells.get((label, int(x)))
        if cell is None:
            return None
        try:
            return [cell[run] for run in range(int(lo), int(hi))]
        except KeyError:
            return None

    def close(self) -> None:
        """Flush, fsync and close the append handle."""
        if self._fh is not None:
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def discard(self) -> None:
        """Close and delete the journal (after a fully successful run)."""
        self.close()
        if self._path.exists():
            self._path.unlink()


def journal_summary(path: os.PathLike | str) -> Optional[Dict[str, Any]]:
    """Read-only summary of a journal file for ``journal info``.

    Lenient by design: it reads *any* journal regardless of which
    experiment it belongs to (no ``exp_id``/``key`` to match against),
    skips corrupt records instead of failing, and never mutates the
    file -- inspecting a crashed run must not change what ``--resume``
    will see.

    Returns:
        ``None`` when the file is missing or its header is unreadable;
        otherwise a dict with ``exp_id``, ``key``, ``format``,
        ``shard_records``, ``quarantined_records``, ``corrupt_records``,
        ``cells`` (distinct ``(label, x)`` grid points with journalled
        costs) and ``runs`` (total individual run costs recorded).
    """
    file = Path(path)
    try:
        lines = file.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if not lines:
        return None
    header = parse_checksum_line(lines[0])
    if header is None:
        return None
    try:
        meta = json.loads(header)
    except ValueError:
        return None
    if not isinstance(meta, dict):
        return None
    shard_records = 0
    quarantined = 0
    corrupt = 0
    cells: Dict[Tuple[str, int], set] = {}
    for line in lines[1:]:
        payload = parse_checksum_line(line)
        if payload is None:
            corrupt += 1
            continue
        if ShardJournal._parse_quarantine(payload):
            quarantined += 1
            continue
        record = ShardJournal._parse_record(payload)
        if record is None:
            corrupt += 1
            continue
        label, x, lo, costs = record
        shard_records += 1
        cells.setdefault((label, x), set()).update(
            range(lo, lo + len(costs))
        )
    return {
        "exp_id": meta.get("exp_id"),
        "key": meta.get("key"),
        "format": meta.get("format"),
        "shard_records": shard_records,
        "quarantined_records": quarantined,
        "corrupt_records": corrupt,
        "cells": len(cells),
        "runs": sum(len(runs) for runs in cells.values()),
    }


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


class GracefulShutdown:
    """Installs SIGINT/SIGTERM handlers that raise :class:`GracefulExit`.

    The first signal raises in the main thread, giving the supervised
    loop a chance to drain in-flight shards and the CLI a chance to
    flush the journal, write the metrics snapshot and print the exact
    ``--resume`` command.  A second signal restores the default handler
    and re-delivers itself: the operator can always force-quit.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.requested: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def _handler(self, signum: int, frame: Any) -> None:
        if self.requested is not None:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.requested = signum
        _R_GRACEFUL_EXITS.inc()
        raise GracefulExit(signum)

    def __enter__(self) -> "GracefulShutdown":
        for signum in self.SIGNALS:
            self._previous[signum] = signal.signal(signum, self._handler)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


# ---------------------------------------------------------------------------
# Supervision policy & context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisionPolicy:
    """Tunables of the supervised execution loop.

    The stall deadline -- how long the loop waits without *any* shard
    completing before declaring the pool wedged -- is derived from the
    ``sweep.shard_seconds`` observation histogram (and from completion
    times the supervisor itself has seen): ``stall_factor`` times the
    slowest shard on record, floored at ``stall_floor``.  Until any
    shard has completed anywhere -- metrics disabled, or the histogram
    still empty -- ``stall_default`` applies (the documented
    :data:`STALL_COLD_START_DEFAULT` floor, logged once on first use).
    Set ``stall_timeout`` to pin it explicitly (chaos tests do).
    """

    max_retries: int = 3
    stall_timeout: Optional[float] = None
    stall_floor: float = 30.0
    stall_factor: float = 8.0
    stall_default: float = STALL_COLD_START_DEFAULT
    poll_interval: float = 0.25
    #: Submitted-but-unfinished shards per worker; bounds how much work
    #: a pool recycle can lose.
    submit_ahead: int = 2
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    #: How long a graceful shutdown waits for in-flight shards.
    drain_grace: float = 5.0

    def stall_deadline(self, observed_max: float) -> float:
        """The current no-progress deadline in seconds."""
        if self.stall_timeout is not None:
            return self.stall_timeout
        slowest = observed_max
        hist = get_registry().snapshot().histograms.get("sweep.shard_seconds")
        if hist is not None and hist.max is not None:
            slowest = max(slowest, hist.max)
        if slowest <= 0.0:
            # Cold start: nothing observed yet (metrics disabled, or no
            # shard has completed anywhere).  Log the fallback once so a
            # 300 s deadline in the field is explainable.
            global _stall_cold_start_logged
            if not _stall_cold_start_logged:
                _stall_cold_start_logged = True
                _LOG.info(
                    "stall deadline cold start: no shard duration "
                    "observed yet; using the default of %.0f s until "
                    "the first shard completes",
                    self.stall_default,
                )
            return self.stall_default
        return max(self.stall_floor, self.stall_factor * slowest)


@dataclass
class RunContext:
    """Everything resilient execution needs for one experiment run.

    Built by the CLI (or a test) and installed with :func:`activate`;
    the sweep engine discovers it via :func:`current_context`, and
    builds a journal-less one for a batch when none is installed.
    """

    journal: Optional[ShardJournal] = None
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    #: Human-readable coordinates of quarantined shards (degraded run).
    degraded: List[str] = field(default_factory=list)
    #: A started :class:`repro.farm.coordinator.FarmCoordinator` when
    #: the run uses ``--backend farm``; the sweep engine then routes
    #: shard batches through it instead of a local process pool.  Typed
    #: loosely to keep :mod:`repro.farm` importing *this* module, not
    #: the other way around.
    farm: Optional[Any] = None

    def lookup_shard(self, task: Any) -> Optional[List[float]]:
        """Journal hit for ``task``'s run block, or ``None``."""
        if self.journal is None:
            return None
        label, x, lo, hi = shard_coords(task)
        costs = self.journal.lookup(label, x, lo, hi)
        if costs is not None:
            _R_RESUME_SKIPS.inc()
        return costs

    def record_shard(self, task: Any, costs: Sequence[float]) -> None:
        """Durably journal ``task``'s completed run block."""
        if self.journal is not None:
            label, x, lo, hi = shard_coords(task)
            self.journal.record(label, x, lo, hi, costs)

    def mark_degraded(self, task: Any, reason: str) -> None:
        """Record a quarantined shard for the degraded report.

        Also journals a quarantine record (when a journal is attached),
        so ``tcast-experiments journal info`` can report why the run
        was degraded after the process is long gone.
        """
        label, x, lo, hi = shard_coords(task)
        self.degraded.append(
            f"{label!r} x={x} runs [{lo},{hi}): {reason}"
        )
        if self.journal is not None:
            self.journal.record_quarantine(label, x, lo, hi, reason)


_ACTIVE: Optional[RunContext] = None


def current_context() -> Optional[RunContext]:
    """The :class:`RunContext` installed by :func:`activate`, if any."""
    return _ACTIVE


@contextmanager
def activate(ctx: RunContext) -> Iterator[RunContext]:
    """Install ``ctx`` as the process's active run context."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = previous
        if ctx.journal is not None:
            ctx.journal.close()


# ---------------------------------------------------------------------------
# Supervised process pools
# ---------------------------------------------------------------------------

#: Supervised pools, one per worker count: the harness's only process-pool
#: cache.  Sweep batches reach them through :func:`run_supervised`, which
#: kills and replaces a broken or wedged pool; fig09/fig10 map whole cells
#: on them directly.
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs)
        _POOLS[jobs] = pool
    return pool


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are hung or dead."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.kill()
    for proc in processes:
        proc.join(timeout=2.0)


def _recycle_pool(jobs: int) -> ProcessPoolExecutor:
    """Replace the supervised pool for ``jobs`` with a fresh one."""
    stale = _POOLS.pop(jobs, None)
    if stale is not None:
        _kill_pool(stale)
    _R_POOL_RECYCLES.inc()
    return _get_pool(jobs)


def shutdown_pools() -> None:
    """Tear down every supervised pool (test/interpreter hygiene)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        _kill_pool(pool)


# ---------------------------------------------------------------------------
# The supervised execution loop
# ---------------------------------------------------------------------------


def _requeue_or_quarantine(
    pending: Deque[Tuple[int, Any, int]],
    idx: int,
    task: Any,
    attempts: int,
    policy: SupervisionPolicy,
    on_quarantine: Callable[[int, Any, str], None],
    reason: str,
) -> None:
    attempts += 1
    if attempts > policy.max_retries:
        _R_QUARANTINED.inc()
        on_quarantine(
            idx, task, f"{reason}; gave up after {attempts} attempts"
        )
    else:
        _R_REQUEUES.inc()
        pending.append((idx, task, attempts))


def _drain_in_flight(
    in_flight: Dict["Future[ShardOutcome]", Tuple[int, Any, int, float]],
    on_complete: Callable[[int, Any, ShardOutcome], None],
    grace: float,
) -> None:
    """Best-effort drain during graceful shutdown: journal what finishes."""
    for fut in in_flight:
        fut.cancel()  # queued-but-unstarted shards stop here
    done, _ = wait(set(in_flight), timeout=grace)
    for fut in done:
        idx, task, _, _ = in_flight[fut]
        try:
            outcome = fut.result()
        except (CancelledError, Exception):
            # Shutdown already in progress: a shard lost here is simply
            # not journalled and will be recomputed on --resume.
            _R_DRAIN_LOSSES.inc()
            continue
        if outcome.error_type is None and outcome.costs is not None:
            on_complete(idx, task, outcome)


def run_supervised(
    fn: Callable[[Any], ShardOutcome],
    items: Sequence[Tuple[int, Any]],
    *,
    jobs: int,
    context: RunContext,
    on_complete: Callable[[int, Any, ShardOutcome], None],
    on_quarantine: Callable[[int, Any, str], None],
) -> None:
    """Execute shards on a supervised process pool.

    Args:
        fn: Module-level guarded shard function (returns
            :class:`ShardOutcome`, never raises for in-shard errors).
        items: ``(index, task)`` pairs; ``task`` must expose
            ``label``/``x``/``run_lo``/``run_hi`` for error reporting.
        jobs: Worker-process count.
        context: Active run context (policy, journal).
        on_complete: Called in submission-completion order with
            ``(index, task, outcome)`` for every successful shard --
            the caller journals and aggregates there.
        on_quarantine: Called with ``(index, task, reason)`` when a
            shard exhausts its retries.

    Raises:
        ShardExecutionError: A shard raised inside a worker (a bug, not
            an infrastructure failure) -- carries coordinates and the
            remote traceback.
        GracefulExit: Re-raised after draining when SIGINT/SIGTERM
            arrived mid-run.
    """
    policy = context.policy
    pending: Deque[Tuple[int, Any, int]] = deque(
        (idx, task, 0) for idx, task in items
    )
    in_flight: Dict["Future[ShardOutcome]", Tuple[int, Any, int, float]] = {}
    observed_max = 0.0
    consecutive_recycles = 0
    pool = _get_pool(jobs)
    last_progress = time.monotonic()
    try:
        while pending or in_flight:
            pool_broken = False
            while pending and len(in_flight) < jobs * policy.submit_ahead:
                idx, task, attempts = pending.popleft()
                try:
                    fut = pool.submit(fn, task)
                except BrokenProcessPool:
                    # A worker died while the cached pool sat idle: the
                    # same crash a future would report, seen earlier.
                    pool_broken = True
                    _requeue_or_quarantine(
                        pending, idx, task, attempts, policy,
                        on_quarantine, "worker process crashed",
                    )
                    break
                in_flight[fut] = (idx, task, attempts, time.monotonic())
            done, _ = wait(
                set(in_flight),
                timeout=policy.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            for fut in done:
                idx, task, attempts, submitted = in_flight.pop(fut)
                try:
                    outcome = fut.result()
                except (BrokenProcessPool, CancelledError):
                    # The worker died (kill -9, OOM) or the future fell
                    # victim to a recycle race; either way the shard did
                    # not run to completion.
                    pool_broken = True
                    _requeue_or_quarantine(
                        pending, idx, task, attempts, policy,
                        on_quarantine, "worker process crashed",
                    )
                    continue
                if outcome.error_type is not None:
                    label, x, lo, hi = shard_coords(task)
                    for other in in_flight:
                        other.cancel()
                    raise ShardExecutionError(
                        label, x, lo, hi,
                        outcome.error_type,
                        outcome.remote_traceback or "<no traceback captured>",
                    )
                observed_max = max(
                    observed_max, time.monotonic() - submitted
                )
                last_progress = time.monotonic()
                consecutive_recycles = 0
                on_complete(idx, task, outcome)
            if pool_broken:
                _R_WORKER_FAILURES.inc()
                for fut, (idx, task, attempts, _) in list(in_flight.items()):
                    _requeue_or_quarantine(
                        pending, idx, task, attempts, policy,
                        on_quarantine, "lost to a broken worker pool",
                    )
                in_flight.clear()
                _backoff(policy, consecutive_recycles)
                consecutive_recycles += 1
                pool = _recycle_pool(jobs)
                last_progress = time.monotonic()
                continue
            if (
                in_flight
                and not done
                and time.monotonic() - last_progress
                > policy.stall_deadline(observed_max)
            ):
                _R_STALLS.inc()
                for fut, (idx, task, attempts, _) in list(in_flight.items()):
                    _requeue_or_quarantine(
                        pending, idx, task, attempts, policy,
                        on_quarantine, "shard deadline exceeded (hung worker)",
                    )
                in_flight.clear()
                _backoff(policy, consecutive_recycles)
                consecutive_recycles += 1
                pool = _recycle_pool(jobs)
                last_progress = time.monotonic()
    except GracefulExit:
        _drain_in_flight(in_flight, on_complete, policy.drain_grace)
        raise


def _backoff(policy: SupervisionPolicy, consecutive: int) -> None:
    """Sleep before resubmitting after a pool failure (exponential)."""
    delay = min(policy.backoff_cap, policy.backoff_base * (2 ** consecutive))
    if delay > 0:
        time.sleep(delay)
