"""The farm worker: claim leased shards, heartbeat, publish results.

A worker is an independent OS process (spawned by the coordinator or
launched by hand -- ``python -m repro.farm.worker DIR`` /
``tcast-experiments farm worker --spool DIR``) that:

1. registers itself under ``<spool>/workers/`` and heartbeats that
   registration for as long as it lives,
2. polls ``<spool>/leases/`` for leases granted *to it* by the
   coordinator,
3. executes each leased shard (unpickling the spooled descriptor,
   verifying its frame first) while a daemon thread heartbeats the
   lease file,
4. publishes the shard's
   :class:`~repro.experiments.resilience.ShardRecord` -- the one the
   local backend hands home, in-shard exceptions included, plus this
   worker's id and lease attempt -- to the content-addressed store, and
   releases the lease.

Crash-safety properties:

* A worker killed mid-shard simply stops heartbeating; the coordinator
  reclaims the lease and re-grants it elsewhere.
* A worker whose lease is reclaimed *while it is still computing*
  (a stall misjudged, or a slow host) finishes anyway and publishes the
  result -- shard costs derive statelessly from the shard coordinates,
  so the duplicate is bit-identical and the atomic store write makes it
  harmless ("stolen" lease, counted by the coordinator).
* A worker that outlives its coordinator (SIGKILL) keeps draining work
  while the coordinator heartbeat is fresh, then exits on its own once
  the heartbeat has been stale for ``coordinator_grace`` seconds --
  orphans never spin forever.

Workers never touch the run journal or the final CSV; aggregation is
the coordinator's job, which is what keeps the farm's output
byte-identical to a serial run no matter how many workers died,
duplicated work, or raced on a lease.

Both command lines share :func:`add_worker_arguments` (the flags) and
:func:`run_worker` (logging, and SIGTERM/SIGINT handlers that exit 0
and deregister); only the spool's spelling differs.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.experiments.resilience import ShardRecord, shard_id
from repro.farm import lease as leasemod
from repro.farm.spool import Spool
from repro.sim import fastseed

_LOG = logging.getLogger(__name__)

#: Default seconds between lease/registration heartbeat touches.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: Default seconds between polls of the lease directory.
DEFAULT_POLL_INTERVAL = 0.2

#: Default seconds of stale coordinator heartbeat an orphaned worker
#: tolerates before exiting on its own.
DEFAULT_COORDINATOR_GRACE = 30.0


class _Heartbeat(threading.Thread):
    """Daemon thread touching the registration (and current lease) file.

    Runs for the worker's whole lifetime so a long shard computation
    cannot starve the liveness heartbeat.  The current lease is swapped
    in and out around each shard; a touch that discovers the lease file
    gone flips ``lease_lost`` so the worker knows it was reclaimed.
    """

    def __init__(self, registration: Path, interval: float) -> None:
        super().__init__(name="farm-heartbeat", daemon=True)
        self._registration = registration
        self._interval = interval
        self._lease_path: Optional[Path] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.lease_lost = threading.Event()

    def set_lease(self, path: Optional[Path]) -> None:
        """Start (or stop, with ``None``) heartbeating a lease file."""
        with self._lock:
            self._lease_path = path
            self.lease_lost.clear()

    def stop(self) -> None:
        """Terminate the thread at the next interval boundary."""
        self._stop.set()

    def run(self) -> None:
        """Touch the registration and current lease until stopped."""
        while not self._stop.wait(self._interval):
            leasemod.touch(self._registration)
            with self._lock:
                path = self._lease_path
            if path is not None and not leasemod.touch(path):
                self.lease_lost.set()


class FarmWorker:
    """One farm worker process (see module docstring).

    Args:
        spool_root: The run's spool directory.
        worker_id: Farm-wide unique id; defaults to ``w<pid>``, which is
            unique per process and therefore across respawns too.
        heartbeat_interval: Seconds between heartbeat touches.
        poll_interval: Seconds between lease-directory polls.
        coordinator_grace: Stale-coordinator tolerance before an
            orphaned worker exits (``0`` disables the check -- tests).
    """

    def __init__(
        self,
        spool_root: os.PathLike | str,
        *,
        worker_id: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        coordinator_grace: float = DEFAULT_COORDINATOR_GRACE,
    ) -> None:
        self.spool = Spool(spool_root)
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.coordinator_grace = coordinator_grace
        #: Shards this worker completed (including stolen finishes).
        self.completed = 0
        #: Set by :meth:`request_stop` (signal handlers, tests); the
        #: drain loop waits on it instead of an uninterruptible sleep so
        #: shutdown latency is bounded by delivery, not ``poll_interval``.
        self._stop_requested = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the drain loop to exit now (safe from signal handlers).

        Wakes the loop out of its idle wait immediately; without this,
        a sleeping worker would only notice a shutdown request at the
        next ``poll_interval`` boundary.
        """
        self._stop_requested.set()

    def _should_exit(self, now: float) -> Optional[str]:
        """A reason to exit, or ``None`` to keep draining work."""
        if self._stop_requested.is_set():
            return "stop requested"
        if self.spool.stop_path.exists():
            return "coordinator requested shutdown"
        if not self.spool.manifest_path.is_file():
            return "spool discarded"
        if self.coordinator_grace > 0:
            age = leasemod.age_seconds(self.spool.heartbeat_path, now)
            if age is None or age > self.coordinator_grace:
                return (
                    f"coordinator heartbeat stale "
                    f"({'missing' if age is None else f'{age:.1f}s'})"
                )
        return None

    def _my_leases(self) -> list[leasemod.Lease]:
        """Leases currently granted to this worker, oldest grant first."""
        mine = []
        if not self.spool.leases_dir.is_dir():
            return mine
        for path in sorted(self.spool.leases_dir.glob("*.lease")):
            parsed = leasemod.read_lease(path)
            if parsed is not None and parsed.worker == self.worker_id:
                mine.append(parsed)
        return mine

    def _release(self, granted: leasemod.Lease) -> None:
        """Delete the lease file iff it still belongs to this grant."""
        path = self.spool.lease_path(granted.key)
        current = leasemod.read_lease(path)
        if (
            current is not None
            and current.worker == self.worker_id
            and current.attempt == granted.attempt
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    # -- shard execution ---------------------------------------------------

    def _serve(self, granted: leasemod.Lease, heartbeat: _Heartbeat) -> None:
        """Execute one granted lease end to end."""
        key = granted.key
        if self.spool.store.path(key).is_file():
            # Already computed (resume, or a duplicate grant after a
            # stolen finish): nothing to do but release the lease.
            self._release(granted)
            return
        descriptor = self.spool.read_shard(key)
        if descriptor is None:
            # Damaged descriptor: decline by releasing; the coordinator
            # rewrites the descriptor when it re-grants the shard.
            _LOG.warning("worker %s: damaged descriptor for %s; declining",
                         self.worker_id, key[:16])
            self._release(granted)
            return
        fn, task = descriptor
        heartbeat.set_lease(self.spool.lease_path(key))
        try:
            record: ShardRecord = fn(task)
        except Exception as exc:  # the guarded fn itself failed to load/run
            record = ShardRecord(
                shard_id(task),
                error_type=type(exc).__name__,
                remote_traceback=traceback.format_exc(),
            )
        finally:
            heartbeat.set_lease(None)
        self.spool.store.store(
            key, replace(record, worker=self.worker_id, attempt=granted.attempt)
        )
        self.completed += 1
        self._release(granted)

    def run(self) -> int:
        """Register, drain leases until told (or left) to stop; exit 0."""
        # Probe numpy before registering, as the local pool does before
        # forking, so the probe battery stays out of the first lease.
        fastseed.available()
        registration = leasemod.register_worker(
            self.spool, self.worker_id, os.getpid()
        )
        heartbeat = _Heartbeat(registration, self.heartbeat_interval)
        heartbeat.start()
        _LOG.info("worker %s: registered in %s", self.worker_id,
                  self.spool.root)
        try:
            while True:
                reason = self._should_exit(time.time())
                if reason is not None:
                    _LOG.info("worker %s: exiting (%s) after %d shard(s)",
                              self.worker_id, reason, self.completed)
                    return 0
                served = False
                for granted in self._my_leases():
                    self._serve(granted, heartbeat)
                    served = True
                if not served:
                    # Re-check the exit conditions (STOP marker, lost
                    # manifest, stale coordinator) before going idle: a
                    # shutdown that raced the lease poll must not cost a
                    # full poll_interval of drain latency.  The wait is
                    # interruptible -- request_stop() ends it instantly.
                    if self._should_exit(time.time()) is not None:
                        continue
                    self._stop_requested.wait(self.poll_interval)
        finally:
            heartbeat.stop()
            leasemod.deregister_worker(self.spool, self.worker_id)


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the worker's flags (all but the spool) on ``parser``."""
    parser.add_argument(
        "--worker-id", default=None,
        help="farm-wide unique worker id (default: w<pid>)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
        help="seconds between lease heartbeat touches",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=DEFAULT_POLL_INTERVAL,
        help="seconds between lease-directory polls",
    )
    parser.add_argument(
        "--coordinator-grace", type=float,
        default=DEFAULT_COORDINATOR_GRACE,
        help="stale-coordinator seconds tolerated before exiting "
        "(0 disables the check)",
    )


def run_worker(spool: Path, args: argparse.Namespace) -> int:
    """Run one worker from parsed :func:`add_worker_arguments` flags;
    SIGTERM/SIGINT call :meth:`FarmWorker.request_stop`."""
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s",
    )
    worker = FarmWorker(
        spool,
        worker_id=args.worker_id,
        heartbeat_interval=args.heartbeat_interval,
        poll_interval=args.poll_interval,
        coordinator_grace=args.coordinator_grace,
    )

    def _on_signal(signum: int, frame: Optional[Any]) -> None:
        worker.request_stop()

    # SIGTERM/SIGINT end the idle wait immediately, so shutdown latency
    # is bounded by signal delivery rather than the poll interval.
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    return worker.run()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: ``python -m repro.farm.worker SPOOL``."""
    parser = argparse.ArgumentParser(
        prog="repro.farm.worker",
        description="Run one sweep-farm worker against a spool directory.",
    )
    parser.add_argument("spool", type=Path, help="the run's spool directory")
    add_worker_arguments(parser)
    args = parser.parse_args(argv)
    return run_worker(args.spool, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
