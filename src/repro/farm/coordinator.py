"""The farm coordinator: spool shards, grant leases, reclaim, collect.

:class:`FarmCoordinator` is the ``--backend farm`` counterpart of
:func:`repro.experiments.resilience.run_supervised`: it executes a batch
of sweep shards with the same callback contract (``on_complete`` in
collection order, ``on_quarantine`` after bounded retries, in-shard
exceptions re-raised as
:class:`~repro.experiments.resilience.ShardExecutionError` with the
remote traceback) -- but over a fleet of independent worker *processes*
coordinated purely through a shared spool directory, so any participant
can be SIGKILLed without taking the run down.

Per tick (``FarmPolicy.poll_interval``), the coordinator:

1. heartbeats its own liveness file (workers orphan-check against it),
2. reaps dead workers -- a spawned process that exited, or any
   registration whose heartbeat went stale -- counting
   ``farm.worker_deaths`` and respawning spawned workers up to
   ``FarmPolicy.max_worker_respawns``,
3. **collects** finished shards from the content-addressed store
   (checksum-verified; corrupt entries are quarantined, counted in
   ``farm.store_corrupt``, and the shard is re-leased),
4. **reclaims** expired leases: heartbeat stale (worker death) or total
   lease age beyond the stall deadline (hung computation; the deadline
   derives from the ``sweep.shard_seconds`` histogram exactly like
   :meth:`~repro.experiments.resilience.SupervisionPolicy.stall_deadline`)
   -- requeueing up to ``SupervisionPolicy.max_retries`` grants and
   quarantining after that,
5. **grants** queued shards to idle, live workers (one outstanding
   lease per worker).

Every lease grant is resolved exactly once, which is the accounting
contract the chaos suite asserts::

    farm.leases_granted == farm.leases_completed
                           + farm.leases_expired
                           + farm.leases_quarantined

``farm.leases_stolen`` (a reclaimed lease whose original holder finished
anyway) and ``farm.duplicate_completions`` (a second, byte-identical
store write observed for an already-collected shard) are informational
-- both are *expected* under chaos and harmless by construction, since
shard costs derive statelessly from the shard coordinates.

Timing here is real harness wall-clock (worker processes live and die
in host time), like :mod:`repro.experiments.resilience`; nothing in
this module touches simulated time or any RNG stream.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.resilience import (
    ShardExecutionError,
    ShardRecord,
    SupervisionPolicy,
    shard_id,
)
from repro.farm import lease as leasemod
from repro.farm.lease import Lease, LeaseState
from repro.farm.spool import Spool, shard_key
from repro.obs import get_registry

_LOG = logging.getLogger(__name__)

#: Import-time instruments (inert until metrics are enabled).  All
#: counters are coordinator-side: workers report through the store.
_OBS = get_registry()
_F_SPOOLED = _OBS.counter("farm.shards_spooled")
_F_GRANTED = _OBS.counter("farm.leases_granted")
_F_COMPLETED = _OBS.counter("farm.leases_completed")
_F_EXPIRED = _OBS.counter("farm.leases_expired")
_F_QUARANTINED = _OBS.counter("farm.leases_quarantined")
_F_STOLEN = _OBS.counter("farm.leases_stolen")
_F_DUPLICATES = _OBS.counter("farm.duplicate_completions")
_F_WORKER_DEATHS = _OBS.counter("farm.worker_deaths")
_F_WORKER_RESPAWNS = _OBS.counter("farm.worker_respawns")
_F_STORE_HITS = _OBS.counter("farm.store_hits")
_F_STORE_CORRUPT = _OBS.counter("farm.store_corrupt")
_F_LEASE_SECONDS = _OBS.histogram(
    "farm.lease_seconds",
    edges=(0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0),
)


@dataclass(frozen=True)
class FarmPolicy:
    """Tunables of the coordinator/worker loop.

    The *two* failure clocks are deliberately separate: heartbeat
    staleness (``heartbeat_grace``) detects a **dead** worker within a
    few heartbeat intervals regardless of how long shards take, while
    the stall deadline inherited from
    :meth:`SupervisionPolicy.stall_deadline` detects a **hung** worker
    whose heartbeat thread is still dutifully touching the lease.
    """

    #: Seconds between worker heartbeat touches (passed to spawned
    #: workers; external workers should match).
    heartbeat_interval: float = 0.5
    #: Seconds of stale heartbeat after which a lease or a worker
    #: registration counts as dead.
    heartbeat_grace: float = 5.0
    #: Seconds between coordinator ticks.
    poll_interval: float = 0.2
    #: Stale-coordinator tolerance handed to spawned workers (orphans
    #: exit on their own after this).
    coordinator_grace: float = 30.0
    #: Total worker respawns the coordinator will perform in one run.
    max_worker_respawns: int = 16
    #: How long shutdown waits for workers to drain before SIGTERM.
    drain_grace: float = 5.0


@dataclass
class _ShardState:
    """Coordinator-side bookkeeping for one shard of the current batch."""

    idx: int
    key: str
    task: Any
    fn: Callable[[Any], Any]
    state: LeaseState = LeaseState.QUEUED
    #: Number of leases granted so far (the next grant's attempt id).
    attempts: int = 0
    lease_worker: Optional[str] = None
    granted_at: float = 0.0
    #: st_mtime_ns of the store entry at collection (duplicate detection).
    collected_mtime_ns: Optional[int] = None


class FarmCoordinator:
    """Coordinate one experiment run over a fleet of worker processes.

    Use as a context manager (the CLI does)::

        with FarmCoordinator(spool_dir, exp_id="fig01", run_key=key,
                             workers=3, resume=args.resume) as farm:
            ctx = RunContext(journal=journal, farm=farm)
            with resilience.activate(ctx):
                run_experiment("fig01", ...)

    Args:
        spool_root: This run's spool directory (shared filesystem).
        exp_id: Experiment id (manifest sanity check).
        run_key: The run's content key (config + seed + code
            fingerprint); shard keys and the manifest derive from it.
        workers: Worker processes to spawn (ignored when
            ``spawn_workers`` is false).
        policy: Farm timing knobs.
        supervision: Retry budget and stall deadline (shared semantics
            with the local supervised backend).
        spawn_workers: Spawn local worker subprocesses.  With ``False``
            the coordinator serves externally launched workers only
            (``tcast-experiments farm worker``) and waits for them to
            register.
        resume: Keep a spool whose manifest matches this run (the
            store then seeds completed shards); otherwise any existing
            spool for the directory is discarded.
    """

    def __init__(
        self,
        spool_root: os.PathLike | str,
        *,
        exp_id: str,
        run_key: str,
        workers: int = 2,
        policy: Optional[FarmPolicy] = None,
        supervision: Optional[SupervisionPolicy] = None,
        spawn_workers: bool = True,
        resume: bool = False,
    ) -> None:
        self.spool = Spool(spool_root)
        self.exp_id = exp_id
        self.run_key = run_key
        self.workers = max(1, int(workers))
        self.policy = policy or FarmPolicy()
        self.supervision = supervision or SupervisionPolicy()
        self.spawn_workers = spawn_workers
        self.resume = resume
        self.resumed_shards = 0
        self._started = False
        self._spawn_seq = 0
        self._respawns = 0
        #: Spawned worker processes: worker id -> (Popen, log handle).
        self._procs: Dict[str, Tuple[subprocess.Popen[bytes], Any]] = {}
        self._observed_max = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FarmCoordinator":
        """Prepare (or resume) the spool and spawn the worker fleet."""
        if self._started:
            return self
        if self.resume and self.spool.manifest_matches(
            self.exp_id, self.run_key
        ):
            self.resumed_shards = self.spool.store.entry_count()
            # Leases from the dead coordinator mean nothing to this
            # one's accounting; clear them.  A live orphan worker whose
            # lease vanishes just finishes and publishes -- harmless.
            for stale in sorted(self.spool.leases_dir.glob("*.lease")):
                stale.unlink(missing_ok=True)
            self.spool.stop_path.unlink(missing_ok=True)
            self.spool.write_manifest(self.exp_id, self.run_key)
        else:
            self.spool.discard()
            self.spool.write_manifest(self.exp_id, self.run_key)
        self._touch_heartbeat()
        self._started = True
        return self

    def __enter__(self) -> "FarmCoordinator":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`shutdown` (spool kept on disk)."""
        self.shutdown()

    def _touch_heartbeat(self) -> None:
        if not leasemod.touch(self.spool.heartbeat_path):
            self.spool.heartbeat_path.parent.mkdir(parents=True, exist_ok=True)
            self.spool.heartbeat_path.touch()

    def _worker_env(self) -> Dict[str, str]:
        """Environment for spawned workers (repro importable)."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else os.pathsep.join(
            [src, existing]
        )
        return env

    def _spawn_worker(self) -> None:
        self._spawn_seq += 1
        worker_id = f"w{os.getpid()}-{self._spawn_seq}"
        log_path = self.spool.workers_dir / f"{worker_id}.log"
        self.spool.workers_dir.mkdir(parents=True, exist_ok=True)
        log_fh = open(log_path, "ab")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.farm.worker",
                str(self.spool.root),
                "--worker-id", worker_id,
                "--heartbeat-interval", str(self.policy.heartbeat_interval),
                "--poll-interval", str(self.policy.poll_interval),
                "--coordinator-grace", str(self.policy.coordinator_grace),
            ],
            stdout=log_fh,
            stderr=subprocess.STDOUT,
            env=self._worker_env(),
        )
        self._procs[worker_id] = (proc, log_fh)
        _LOG.info("farm: spawned worker %s (pid %d)", worker_id, proc.pid)

    def shutdown(self) -> None:
        """Stop the fleet: STOP marker, drain grace, then terminate.

        Workers that exit within :attr:`FarmPolicy.drain_grace` publish
        their in-flight shard to the store first -- nothing completed is
        lost.  The spool itself is kept for ``--resume``; call
        :meth:`discard` after a fully successful run.
        """
        if not self._started:
            return
        try:
            self.spool.stop_path.touch()
        except OSError:
            pass
        deadline = time.monotonic() + self.policy.drain_grace
        for worker_id, (proc, _) in list(self._procs.items()):
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.0, remaining))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        for worker_id, (_, log_fh) in self._procs.items():
            try:
                log_fh.close()
            except OSError:
                pass
        self._procs.clear()
        self._started = False

    def discard(self) -> None:
        """Delete the spool tree (after a fully successful run)."""
        self.shutdown()
        self.spool.discard()

    # -- the batch loop ----------------------------------------------------

    def execute(
        self,
        items: Sequence[Tuple[int, Any]],
        *,
        fn: Callable[[Any], Any],
        on_complete: Callable[[int, Any, ShardRecord], None],
        on_quarantine: Callable[[int, Any, str], None],
    ) -> None:
        """Execute one batch of shards on the farm (see class docstring).

        Args:
            items: ``(index, task)`` pairs; ``task`` must carry its
                identity (:func:`~repro.experiments.resilience.shard_id`)
                and be picklable.
            fn: Module-level guarded shard function workers run
                (returns a :class:`ShardRecord`, never raises for
                in-shard errors).
            on_complete: Called in collection order with
                ``(index, task, record)`` for every finished shard, the
                record as loaded from the store.
            on_quarantine: Called with ``(index, task, reason)`` when a
                shard exhausts its retry budget.

        Raises:
            RuntimeError: Called outside :meth:`start`/``with``.
            ShardExecutionError: A shard raised inside a worker.
            GracefulExit: Propagated when SIGINT/SIGTERM arrives; the
                store plus the journal then carry everything completed.
        """
        if not self._started:
            raise RuntimeError("FarmCoordinator.execute() before start()")
        states: Dict[str, _ShardState] = {}
        queue: Deque[_ShardState] = deque()
        for idx, task in items:
            key = shard_key(self.run_key, shard_id(task))
            state = _ShardState(idx=idx, key=key, task=task, fn=fn)
            states[key] = state
            # Seed from the store first: a previous coordinator (or an
            # orphan worker) may have completed the shard already.
            if self._try_collect(state, on_complete, leased=False):
                continue
            if not self.spool.shard_path(key).is_file():
                self.spool.write_shard(key, fn, task)
                _F_SPOOLED.inc()
            queue.append(state)

        # The fleet spawns lazily on the first batch with actual work,
        # so a cache hit (or a fully store-seeded resume) costs nothing.
        if queue and self.spawn_workers and self._spawn_seq == 0:
            for _ in range(self.workers):
                self._spawn_worker()

        known_deaths: set[str] = set()
        while any(
            s.state in (LeaseState.QUEUED, LeaseState.LEASED)
            for s in states.values()
        ):
            self._touch_heartbeat()
            self._reap_workers(states, queue, known_deaths, on_quarantine)
            for state in list(states.values()):
                if state.state is LeaseState.LEASED:
                    self._try_collect(state, on_complete, leased=True)
            self._reclaim(states, queue, on_quarantine)
            self._detect_duplicates(states)
            self._grant(queue)
            self._check_liveness(states, queue, on_quarantine)
            time.sleep(self.policy.poll_interval)

    # -- tick phases -------------------------------------------------------

    def _try_collect(
        self,
        state: _ShardState,
        on_complete: Callable[[int, Any, ShardRecord], None],
        *,
        leased: bool,
    ) -> bool:
        """Collect ``state``'s store entry if present; ``True`` if done."""
        path = self.spool.store.path(state.key)
        if not path.is_file():
            return False
        before = self.spool.store.corrupt
        record = self.spool.store.load(state.key)
        if record is None:
            if self.spool.store.corrupt > before:
                _F_STORE_CORRUPT.inc()
                _LOG.warning(
                    "farm: corrupt store entry for shard %s quarantined; "
                    "recomputing", state.key[:16],
                )
                # A leased worker may still be writing a fresh one; the
                # reclaim sweep re-leases if nobody does.
            return False
        if record.error_type is not None:
            raise ShardExecutionError(record)
        try:
            state.collected_mtime_ns = path.stat().st_mtime_ns
        except FileNotFoundError:  # pragma: no cover - collect/quarantine race
            state.collected_mtime_ns = None
        if leased:
            _F_COMPLETED.inc()
            self._observed_max = max(
                self._observed_max, time.monotonic() - state.granted_at
            )
            _F_LEASE_SECONDS.observe(time.monotonic() - state.granted_at)
            if (
                record.worker != state.lease_worker
                or record.attempt != state.attempts - 1
            ):
                # A reclaimed holder finished anyway and beat the
                # current one to the store: the grant still resolves.
                _F_STOLEN.inc()
            self.spool.lease_path(state.key).unlink(missing_ok=True)
        else:
            _F_STORE_HITS.inc()
        state.state = LeaseState.COMPLETED
        state.lease_worker = None
        on_complete(state.idx, state.task, record)
        return True

    def _reap_workers(
        self,
        states: Dict[str, _ShardState],
        queue: Deque[_ShardState],
        known_deaths: set[str],
        on_quarantine: Callable[[int, Any, str], None],
    ) -> None:
        """Detect dead workers; reclaim their leases; respawn spawned ones."""
        now = time.time()
        dead: List[str] = []
        # Spawned process exited while still registered -> death.
        for worker_id, (proc, log_fh) in list(self._procs.items()):
            if proc.poll() is None:
                continue
            reg = self.spool.workers_dir / f"{worker_id}.reg"
            if reg.exists():
                dead.append(worker_id)
            try:
                log_fh.close()
            except OSError:
                pass
            del self._procs[worker_id]
            if self.spawn_workers and self._respawns < self.policy.max_worker_respawns:
                self._respawns += 1
                _F_WORKER_RESPAWNS.inc()
                self._spawn_worker()
        # Any registration (spawned or external) whose heartbeat stalled.
        for worker_id, age in leasemod.registered_workers(
            self.spool, now
        ).items():
            if age > self.policy.heartbeat_grace and worker_id not in dead:
                dead.append(worker_id)
        for worker_id in dead:
            if worker_id not in known_deaths:
                known_deaths.add(worker_id)
                _F_WORKER_DEATHS.inc()
                _LOG.warning("farm: worker %s died", worker_id)
            leasemod.deregister_worker(self.spool, worker_id)
            for state in states.values():
                if (
                    state.state is LeaseState.LEASED
                    and state.lease_worker == worker_id
                ):
                    self._expire(
                        state, queue, on_quarantine,
                        f"worker {worker_id} died",
                    )

    def _expire(
        self,
        state: _ShardState,
        queue: Deque[_ShardState],
        on_quarantine: Callable[[int, Any, str], None],
        reason: str,
    ) -> None:
        """Resolve one outstanding lease as expired or quarantined."""
        self.spool.lease_path(state.key).unlink(missing_ok=True)
        state.lease_worker = None
        if state.attempts > self.supervision.max_retries:
            _F_QUARANTINED.inc()
            state.state = LeaseState.QUARANTINED
            on_quarantine(
                state.idx, state.task,
                f"{reason}; gave up after {state.attempts} lease(s)",
            )
        else:
            _F_EXPIRED.inc()
            state.state = LeaseState.QUEUED
            queue.append(state)

    def _reclaim(
        self,
        states: Dict[str, _ShardState],
        queue: Deque[_ShardState],
        on_quarantine: Callable[[int, Any, str], None],
    ) -> None:
        """Reclaim leases that stopped heartbeating or outlived the
        stall deadline."""
        now = time.time()
        stall = self.supervision.stall_deadline(self._observed_max)
        for state in states.values():
            if state.state is not LeaseState.LEASED:
                continue
            age = leasemod.age_seconds(self.spool.lease_path(state.key), now)
            held = time.monotonic() - state.granted_at
            if age is None:
                if self.spool.store.path(state.key).is_file():
                    # The worker stored its record and then released the
                    # lease after this tick's collect pass: the next
                    # tick collects it.
                    continue
                # Lease gone without a store entry: the worker declined
                # (damaged descriptor) or the file was lost; re-lease.
                self.spool.write_shard(state.key, state.fn, state.task)
                self._expire(state, queue, on_quarantine, "lease released")
            elif age > self.policy.heartbeat_grace:
                self._expire(
                    state, queue, on_quarantine,
                    f"lease heartbeat stale ({age:.1f}s)",
                )
            elif held > stall:
                worker = state.lease_worker
                self._expire(
                    state, queue, on_quarantine,
                    f"stall deadline exceeded ({held:.1f}s > {stall:.1f}s)",
                )
                if worker in self._procs:
                    # A hung spawned worker occupies a fleet slot; kill
                    # it so the reap phase respawns a fresh one.
                    proc, _ = self._procs[worker]
                    proc.kill()

    def _detect_duplicates(self, states: Dict[str, _ShardState]) -> None:
        """Count late, byte-identical rewrites of collected shards."""
        for state in states.values():
            if (
                state.state is not LeaseState.COMPLETED
                or state.collected_mtime_ns is None
            ):
                continue
            try:
                mtime_ns = self.spool.store.path(state.key).stat().st_mtime_ns
            except FileNotFoundError:  # pragma: no cover - external cleanup
                continue
            if mtime_ns != state.collected_mtime_ns:
                _F_DUPLICATES.inc()
                state.collected_mtime_ns = mtime_ns

    def _grant(self, queue: Deque[_ShardState]) -> None:
        """Lease queued shards to idle, live workers (one each)."""
        if not queue:
            return
        now = time.time()
        busy = set()
        for path in sorted(self.spool.leases_dir.glob("*.lease")):
            parsed = leasemod.read_lease(path)
            if parsed is not None:
                busy.add(parsed.worker)
        for worker_id, age in sorted(
            leasemod.registered_workers(self.spool, now).items()
        ):
            if not queue:
                break
            if age > self.policy.heartbeat_grace or worker_id in busy:
                continue
            state = queue.popleft()
            if state.attempts > 0:
                # Self-heal a possibly damaged descriptor on re-grant.
                self.spool.write_shard(state.key, state.fn, state.task)
            pid = leasemod.worker_pid(self.spool, worker_id) or -1
            leasemod.grant_lease(
                self.spool.lease_path(state.key),
                Lease(key=state.key, worker=worker_id, pid=pid,
                      attempt=state.attempts),
            )
            state.attempts += 1
            state.state = LeaseState.LEASED
            state.lease_worker = worker_id
            state.granted_at = time.monotonic()
            _F_GRANTED.inc()

    def _check_liveness(
        self,
        states: Dict[str, _ShardState],
        queue: Deque[_ShardState],
        on_quarantine: Callable[[int, Any, str], None],
    ) -> None:
        """Fail the batch loudly when no worker can ever serve it."""
        if not self.spawn_workers:
            return  # external mode: wait for operators to attach workers
        if self._procs or not queue:
            return
        if self._respawns < self.policy.max_worker_respawns:
            return  # reap phase will respawn next tick
        if leasemod.registered_workers(self.spool, time.time()):
            return
        # Respawn budget exhausted, nothing alive, work still queued:
        # quarantine the remainder instead of spinning forever.
        while queue:
            state = queue.popleft()
            state.state = LeaseState.QUARANTINED
            _F_QUARANTINED.inc()
            on_quarantine(
                state.idx, state.task,
                "no live workers and the respawn budget is exhausted",
            )
