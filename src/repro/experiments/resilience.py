# tcast-lint: disable-file=TCL002 -- supervision deadlines, stall detection and backoff are real harness time (worker processes hang in wall-clock time), never simulated time
"""Crash-safe sweep execution: shard journal, worker supervision, shutdown.

PR 1 made the simulated *protocol* fault-tolerant; this module makes the
*execution harness* fault-tolerant, with the same determinism guarantee:
a resumed sweep is bit-identical to an uninterrupted one.  Three pieces:

**Shard journal** (:class:`ShardJournal`).  Every completed shard is
appended to an on-disk journal as one CRC32-framed JSON record (see
:mod:`repro.experiments.atomicio`), flushed to the kernel before the run
moves on (fsync is batched on a time cadence; see :class:`ShardJournal`).
``tcast-experiments run --resume`` reloads the journal and skips every
recorded shard; because a shard's costs derive statelessly from its
identity (:func:`shard_id`: the cell's seed, ``n``, threshold, label
and ``x``, and its run range), the stitched-together result is
byte-identical to an uninterrupted run.  A shard is always one whole
cell, so its identity never depends on ``--jobs``: a resume with a
different ``--jobs`` still reuses every recorded cell.
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.atomicio import (
    RunHeader,
    atomic_write_text,
    checksum_line,
    parse_checksum_line,
)
from repro.obs import MetricsSnapshot, get_registry
from repro.sim import fastseed

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

#: Journal file format version (bumped on incompatible record changes;
#: 2 keys records by the full :class:`ShardId`; 3 makes a record one
#: whole cell, looked up by exact identity).
JOURNAL_FORMAT = 3

#: Minimum seconds between the journal's fsyncs.  Every append is
#: flushed to the kernel immediately (so a completed shard survives any
#: *process* death, ``kill -9`` included); the fsync -- which guards
#: against host/power failure -- is batched to at most one per
#: interval, plus one on close, keeping the fault-free journal overhead
#: bounded.  A record lost to a host crash inside the interval simply
#: fails its CRC (or is absent) and gets recomputed on ``--resume``.
_FSYNC_INTERVAL = 2.0

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

    Built from the shard's error :class:`ShardRecord`; carries the
    failing shard's ``(label, x, run range)`` coordinates and the full
    remote traceback, so the parent's error message is actionable
    instead of a bare :class:`BrokenProcessPool`.
    """

    def __init__(self, record: ShardRecord) -> None:
        shard = record.shard
        self.label = shard.label
        self.x = shard.x
        self.run_lo = shard.lo
        self.run_hi = shard.hi
        self.error_type = record.error_type
        self.remote_traceback = (
            record.remote_traceback or "<no traceback captured>"
        )
        super().__init__(
            f"shard {shard.where} raised {self.error_type} in a worker "
            f"process; remote traceback:\n{self.remote_traceback}"
        )


class ShardId(NamedTuple):
    """Everything a shard's costs derive from besides the run key.

    A shard is one whole grid cell.  One experiment may reuse labels
    across cells that differ in seed, ``n`` or threshold (``ext_scaling``
    sweeps ``n`` with ``seed + n``), so those belong to the identity
    along with label, ``x`` and the cell's run range ``[lo, hi)``.
    """

    seed: int
    n: int
    threshold: int
    label: str
    x: int
    lo: int
    hi: int

    @property
    def where(self) -> str:
        """The shard's coordinates for messages and degraded reports."""
        return f"{self.label!r} x={self.x} runs [{self.lo},{self.hi})"


def shard_id(task: Any) -> ShardId:
    """The identity the journal and the farm's
    :func:`~repro.farm.spool.shard_key` key a task's shard by: its
    ``seed``, ``n``, ``threshold``, ``label``, ``x``, ``run_lo`` and
    ``run_hi`` (every submitted task carries all seven)."""
    return ShardId(
        int(task.seed), int(task.n), int(task.threshold), str(task.label),
        int(task.x), int(task.run_lo), int(task.run_hi),
    )


def _optional(convert: Callable[[Any], Any], value: Any) -> Any:
    return None if value is None else convert(value)


@dataclass(frozen=True)
class ShardRecord:
    """What one shard became, from the worker to the journal and the store.

    A record names its shard and holds exactly one outcome: the per-run
    ``costs`` of a completed shard; the ``error_type`` and
    ``remote_traceback`` of a shard that raised (workers ship in-shard
    exceptions home as data rather than letting an unpicklable exception
    take down the pool channel); or the ``quarantine`` reason of a shard
    given up on.  The worker's metrics ``snapshot`` and the farm's
    provenance (the ``worker`` and lease ``attempt`` that computed it)
    ride along where they exist.

    ``__post_init__`` is the one validation and :meth:`to_payload` /
    :meth:`from_payload` the one codec: a journal line and a farm store
    entry are both a record's payload, so neither can hold a record the
    other would reject.
    """

    shard: ShardId
    costs: Optional[List[float]] = None
    error_type: Optional[str] = None
    remote_traceback: Optional[str] = None
    quarantine: Optional[str] = None
    snapshot: Optional[MetricsSnapshot] = None
    worker: Optional[str] = None
    attempt: Optional[int] = None

    def __post_init__(self) -> None:
        outcomes = sum(
            v is not None for v in (self.costs, self.error_type, self.quarantine)
        )
        if outcomes != 1:
            raise ValueError(
                f"shard {self.shard.where}: {outcomes} outcomes; a record "
                "holds exactly one of costs, error or quarantine"
            )
        if self.costs is not None:
            # Floats on every path: the journal line of a shard is then
            # the same whichever backend computed it.
            costs = [float(c) for c in self.costs]
            if len(costs) != self.shard.hi - self.shard.lo:
                raise ValueError(
                    f"shard {self.shard.where}: {len(costs)} costs"
                )
            object.__setattr__(self, "costs", costs)

    def to_payload(self, *, provenance: bool = True) -> Dict[str, Any]:
        """The record as JSON-ready data: the :class:`ShardId` fields,
        then ``costs``, ``quarantine`` or ``error_type`` plus
        ``remote_traceback``, then any ``snapshot``, ``worker`` and
        ``attempt``.  ``provenance=False`` leaves those last three out:
        a journal line is the shard and its outcome only."""
        payload: Dict[str, Any] = dict(self.shard._asdict())
        if self.costs is not None:
            payload["costs"] = self.costs
        elif self.quarantine is not None:
            payload["quarantine"] = self.quarantine
        else:
            payload["error_type"] = self.error_type
            payload["remote_traceback"] = self.remote_traceback
        if provenance:
            if self.snapshot is not None:
                payload["snapshot"] = self.snapshot.to_dict()
            if self.worker is not None:
                payload["worker"] = self.worker
            if self.attempt is not None:
                payload["attempt"] = self.attempt
        return payload

    @classmethod
    def from_payload(cls, data: Any) -> "ShardRecord":
        """Inverse of :meth:`to_payload`.

        Raises:
            ValueError: A missing or mistyped field, or a payload that
                fails validation; the journal drops such a line and the
                store quarantines such an entry.
        """
        try:
            return cls(
                ShardId(
                    int(data["seed"]), int(data["n"]), int(data["threshold"]),
                    str(data["label"]), int(data["x"]), int(data["lo"]),
                    int(data["hi"]),
                ),
                costs=data.get("costs"),
                error_type=_optional(str, data.get("error_type")),
                remote_traceback=_optional(str, data.get("remote_traceback")),
                quarantine=_optional(str, data.get("quarantine")),
                snapshot=_optional(MetricsSnapshot.from_dict, data.get("snapshot")),
                worker=_optional(str, data.get("worker")),
                attempt=_optional(int, data.get("attempt")),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed shard record: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Shard journal
# ---------------------------------------------------------------------------


def _journal_line(record: ShardRecord) -> str:
    """The CRC32-framed journal line of ``record`` (no provenance)."""
    return checksum_line(
        json.dumps(record.to_payload(provenance=False), separators=(",", ":"))
    )


def _parse_line(line: str) -> Optional[ShardRecord]:
    """The record of one journal line; ``None`` if torn or corrupt."""
    payload = parse_checksum_line(line)
    if payload is None:
        return None
    try:
        return ShardRecord.from_payload(json.loads(payload))
    except ValueError:
        return None


def _read_journal(
    path: Path,
) -> Optional[Tuple[Optional[RunHeader], List[Optional[ShardRecord]]]]:
    """The header and every record line of a journal (``None`` where a
    line is torn or corrupt); ``None`` if the file is missing or empty."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if not lines:
        return None
    return RunHeader.parse(lines[0]), [_parse_line(ln) for ln in lines[1:]]


class ShardJournal:
    """A crash-safe, append-only record of completed sweep shards.

    File layout: a :class:`~repro.experiments.atomicio.RunHeader` line
    followed by one CRC32-framed :class:`ShardRecord` payload per
    completed shard (the :class:`ShardId` fields plus per-run
    ``costs``) or quarantined shard (the fields plus a ``quarantine``
    reason).  Appends are flushed so a completed shard survives
    ``kill -9`` of the run, with fsync batched per
    :data:`_FSYNC_INTERVAL` against host failure; the file itself is
    created (and compacted after torn-tail repair) via atomic
    ``tmp + os.replace``.

    Args:
        path: Journal file location.
        exp_id: Experiment the journal belongs to.
        key: Content key of the computation (same derivation as the
            result cache: config + seed + code fingerprint), so a stale
            journal can never leak records into a different computation.
        resume: Load existing records (``--resume``); otherwise any
            existing file for this key is discarded.
        fsync: Fsync the journal (disable only in tests).
    """

    def __init__(
        self,
        path: os.PathLike | str,
        *,
        exp_id: str,
        key: str,
        resume: bool = False,
        fsync: bool = True,
    ) -> None:
        self._path = Path(path)
        self._header = RunHeader(JOURNAL_FORMAT, exp_id, key)
        self._fsync = fsync
        # The interval starts now: the file's first write, the header,
        # is an fsync'd atomic write, so the first record need not fsync.
        self._last_fsync = time.monotonic()
        self._fh: Optional[Any] = None
        self._costs: Dict[ShardId, List[float]] = {}
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

    def _load(self) -> None:
        """Replay a journal from disk, dropping torn or corrupt records."""
        read = _read_journal(self._path)
        if read is None:
            return
        header, records = read
        if header != self._header:
            if header is None:
                self.dropped_records += len(records) + 1
                _R_DROPPED_RECORDS.inc(len(records) + 1)
            # A journal for a different computation (code or config
            # changed since the crash), or one whose header is torn:
            # start fresh rather than resume records that no longer
            # mean anything.
            self._path.unlink()
            return
        for record in records:
            if record is None:
                self.dropped_records += 1
                _R_DROPPED_RECORDS.inc()
            elif record.costs is None:
                # Prior-run quarantine: keep the record (post-mortem
                # trail) but do not skip the shard -- resume retries it.
                self.quarantined_records += 1
            else:
                self._costs[record.shard] = record.costs
                self.resumed_records += 1
                _R_RESUMED_RECORDS.inc()
        if self.dropped_records:
            # Compact: rewrite only the valid records atomically so the
            # next append lands on a clean file.
            text = self._header.line() + "".join(
                _journal_line(r) for r in records if r is not None
            )
            atomic_write_text(self._path, text, fsync=self._fsync)

    def _open(self) -> Any:
        if self._fh is None:
            if not self._path.exists():
                atomic_write_text(
                    self._path, self._header.line(), fsync=self._fsync
                )
            self._fh = open(self._path, "a", encoding="utf-8")
        return self._fh

    def _append(self, record: ShardRecord) -> None:
        """Frame one record and append it: flush now, fsync on cadence."""
        line = _journal_line(record)
        with _R_JOURNAL_TIMER.time():
            fh = self._open()
            fh.write(line)
            fh.flush()
            now = time.monotonic()
            if self._fsync and now - self._last_fsync >= _FSYNC_INTERVAL:
                os.fsync(fh.fileno())
                self._last_fsync = now

    def record(self, record: ShardRecord) -> None:
        """Durably append one completed shard (flush + batched fsync);
        its snapshot and provenance are not written."""
        assert record.costs is not None
        self._append(record)
        self._costs[record.shard] = record.costs
        self.appended_records += 1
        _R_JOURNAL_RECORDS.inc()

    def record_quarantine(self, shard: ShardId, reason: str) -> None:
        """Durably append a quarantine record for a given-up shard.

        Quarantine records share the journal's CRC framing and survive
        compaction, but never satisfy :meth:`lookup`: a later
        ``--resume`` retries the shard from scratch.  They feed the
        degraded/quarantined counts of ``tcast-experiments journal
        info`` so an operator can see *why* a crashed run was degraded
        without reconstructing it from logs.
        """
        self._append(ShardRecord(shard, quarantine=str(reason)))
        self.quarantined_records += 1

    def lookup(self, shard: ShardId) -> Optional[List[float]]:
        """The recorded per-run costs of exactly this shard, or ``None``
        (the shard must then be computed)."""
        return self._costs.get(shard)

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

    A record's ``[lo, hi)`` range indexes its values, which are runs
    for an engine cell but a few aggregates for a whole-cell figure, so
    the summary counts records and cells and claims no run count.

    Returns:
        ``None`` when the file is missing or its header is unreadable;
        otherwise a dict with ``exp_id``, ``key``, ``format``,
        ``shard_records``, ``quarantined_records``, ``corrupt_records``
        and ``cells`` (distinct shards with journalled values; a
        duplicate record counts once).
    """
    read = _read_journal(Path(path))
    if read is None or read[0] is None:
        return None
    header, records = read
    shards = [r for r in records if r is not None and r.costs is not None]
    return {
        "exp_id": header.exp_id,
        "key": header.key,
        "format": header.format,
        "shard_records": len(shards),
        "quarantined_records": sum(
            1 for r in records if r is not None and r.costs is None
        ),
        "corrupt_records": records.count(None),
        "cells": len({r.shard for r in shards}),
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
        """Journal hit for ``task``'s shard, or ``None``."""
        if self.journal is None:
            return None
        costs = self.journal.lookup(shard_id(task))
        if costs is not None:
            _R_RESUME_SKIPS.inc()
        return costs

    def record_shard(self, record: ShardRecord) -> None:
        """Durably journal a completed shard's record."""
        if self.journal is not None:
            self.journal.record(record)

    def mark_degraded(self, task: Any, reason: str) -> None:
        """Record a quarantined shard for the degraded report.

        Also journals a quarantine record (when a journal is attached),
        so ``tcast-experiments journal info`` can report why the run
        was degraded after the process is long gone.
        """
        shard = shard_id(task)
        self.degraded.append(f"{shard.where}: {reason}")
        if self.journal is not None:
            self.journal.record_quarantine(shard, reason)


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
#: cache.  Every parallel batch reaches them through :func:`run_supervised`,
#: which kills and replaces a broken or wedged pool.
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(jobs)
    if pool is None:
        # Probe numpy once, here: forked workers inherit the cached
        # verdict, so none pays the whole battery in its first shard.
        fastseed.available()
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
    in_flight: Dict["Future[ShardRecord]", Tuple[int, Any, int, float]],
    on_complete: Callable[[int, Any, ShardRecord], None],
    grace: float,
) -> None:
    """Best-effort drain during graceful shutdown: journal what finishes."""
    for fut in in_flight:
        fut.cancel()  # queued-but-unstarted shards stop here
    done, _ = wait(set(in_flight), timeout=grace)
    for fut in done:
        idx, task, _, _ = in_flight[fut]
        try:
            record = fut.result()
        except (CancelledError, Exception):
            # Shutdown already in progress: a shard lost here is simply
            # not journalled and will be recomputed on --resume.
            _R_DRAIN_LOSSES.inc()
            continue
        if record.costs is not None:
            on_complete(idx, task, record)


def run_supervised(
    fn: Callable[[Any], ShardRecord],
    items: Sequence[Tuple[int, Any]],
    *,
    jobs: int,
    context: RunContext,
    on_complete: Callable[[int, Any, ShardRecord], None],
    on_quarantine: Callable[[int, Any, str], None],
) -> None:
    """Execute shards on a supervised process pool.

    Args:
        fn: Module-level guarded shard function (returns a
            :class:`ShardRecord`, never raises for in-shard errors).
        items: ``(index, task)`` pairs; ``task`` must carry its
            identity (:func:`shard_id`) for error reporting.
        jobs: Worker-process count.
        context: Active run context (policy, journal).
        on_complete: Called in submission-completion order with
            ``(index, task, record)`` for every successful shard --
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
    in_flight: Dict["Future[ShardRecord]", Tuple[int, Any, int, float]] = {}
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
                    record = fut.result()
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
                if record.error_type is not None:
                    for other in in_flight:
                        other.cancel()
                    raise ShardExecutionError(record)
                observed_max = max(
                    observed_max, time.monotonic() - submitted
                )
                last_progress = time.monotonic()
                consecutive_recycles = 0
                on_complete(idx, task, record)
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
        # The signal may have landed inside ``pool.submit`` and left a
        # work item the pool never queues, and interpreter exit would
        # wait for it forever; the shutting-down run needs no pool.
        _POOLS.pop(jobs, None)
        _kill_pool(pool)
        raise


def _backoff(policy: SupervisionPolicy, consecutive: int) -> None:
    """Sleep before resubmitting after a pool failure (exponential)."""
    delay = min(policy.backoff_cap, policy.backoff_base * (2 ** consecutive))
    if delay > 0:
        time.sleep(delay)
