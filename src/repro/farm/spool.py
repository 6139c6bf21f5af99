"""Spool directory layout, shard descriptors, and the result store.

A farm run lives in one **spool directory** shared by the coordinator
and every worker (same host, or any host mounting the same filesystem)::

    <spool>/
        MANIFEST            CRC32-framed JSON: format, exp_id, run key
        coordinator.hb      empty file; mtime = coordinator heartbeat
        STOP                created at shutdown; workers drain and exit
        shards/<key>.task   framed pickle of one shard descriptor
        leases/<key>.lease  JSON lease; mtime = worker heartbeat
        workers/<id>.reg    JSON registration; mtime = worker liveness
        store/<key>.json    a finished shard's record (checksummed)
        store/.quarantine/  corrupt entries, parked with unique names

Everything durable goes through :mod:`repro.experiments.atomicio`:
descriptor, manifest and store writes are atomic (unique tmp +
``os.replace``), so a crash at any point leaves whole files or no
files, never truncated ones.  The manifest is the same framed
:class:`~repro.experiments.atomicio.RunHeader` line that opens a run
journal.  Shard descriptors and store entries are **content-keyed** by
:func:`shard_key` -- a SHA-256 over the run's own content key (config +
seed + code fingerprint, the same derivation as
:func:`repro.experiments.cache.cache_key`) plus the shard's
:class:`~repro.experiments.resilience.ShardId` -- so a stale spool can
never leak work or results into a different computation, and a
restarted coordinator regenerates byte-identical file names.

The :class:`ShardStore` is the result cache's
:class:`~repro.experiments.atomicio.ChecksummedStore` at shard
granularity, holding :class:`~repro.experiments.resilience.ShardRecord`
payloads (the journal's record plus the worker's metrics snapshot and
provenance): entries embed a SHA-256 checksum verified on every read,
and a rejected entry is counted, quarantined (with a unique,
never-clobbered name) and recomputed instead of crashing the run or
silently poisoning it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

from repro.experiments.atomicio import (
    ChecksummedStore,
    RunHeader,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.experiments.resilience import ShardId, ShardRecord

#: Spool layout version (bumped on incompatible changes; a mismatched
#: manifest discards the spool instead of resuming from it; 2 stores
#: :class:`~repro.experiments.resilience.ShardRecord` payloads).
SPOOL_FORMAT = 2

#: File names inside a spool directory.
MANIFEST_NAME = "MANIFEST"
COORDINATOR_HEARTBEAT_NAME = "coordinator.hb"
STOP_NAME = "STOP"
SHARDS_DIRNAME = "shards"
LEASES_DIRNAME = "leases"
WORKERS_DIRNAME = "workers"
STORE_DIRNAME = "store"


def shard_key(run_key: str, shard: ShardId) -> str:
    """Content key of one shard: run key + shard identity.

    Args:
        run_key: The run's content key (config + seed + code
            fingerprint -- :func:`repro.experiments.cache.cache_key`).
        shard: The shard's identity
            (:func:`repro.experiments.resilience.shard_id`): the
            cell's seed, ``n``, threshold, label, ``x`` and run range.

    Returns:
        A hex digest.  Equal keys guarantee bit-identical shard costs,
        which is what makes duplicate completions harmless.
    """
    payload = json.dumps(
        {"run": run_key, **shard._asdict()},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(payload).hexdigest()


class ShardStore(ChecksummedStore):
    """Content-addressed, checksummed store of completed shards.

    The farm's source of truth (together with the run journal): workers
    write records with :meth:`store`, the coordinator collects them with
    :meth:`load`, and a coordinator restarted after a crash rebuilds its
    state purely from what it finds here.  Writes are atomic, reads are
    checksum-verified, and rejected files are quarantined under unique
    names (a recomputed replacement that is *also* corrupt quarantines
    again instead of clobbering the first post-mortem sample); see
    :class:`~repro.experiments.atomicio.ChecksummedStore`.

    Args:
        directory: Store root (created lazily on first write).
    """

    def store(self, key: str, record: ShardRecord) -> Path:
        """Atomically write ``record`` under its content key ``key``.

        Concurrent writers (a reclaimed worker racing its replacement)
        are harmless: shard costs derive statelessly from the shard
        identity, so every correct writer produces the same costs and
        the last atomic ``os.replace`` wins with a whole record.
        """
        return self.write(key, record.to_payload())

    def load(self, key: str) -> Optional[ShardRecord]:
        """Return the verified record for ``key``, or ``None``.

        A missing file is a plain miss.  An unreadable, unparseable or
        checksum-mismatched file is counted in :attr:`corrupt`,
        quarantined (unique name) and reported as a miss -- the
        coordinator then re-leases the shard.
        """
        return self.read(key, ShardRecord.from_payload)


class Spool:
    """Paths and framed-file IO of one farm run's spool directory.

    Shared, stateless view used by both the coordinator and workers;
    lifecycle decisions (create fresh, resume, discard) belong to the
    coordinator.

    Args:
        root: The spool directory of one run.
    """

    def __init__(self, root: os.PathLike | str) -> None:
        self._root = Path(root)
        self.store = ShardStore(self._root / STORE_DIRNAME)

    @property
    def root(self) -> Path:
        """The spool directory."""
        return self._root

    @property
    def manifest_path(self) -> Path:
        """The run manifest file."""
        return self._root / MANIFEST_NAME

    @property
    def heartbeat_path(self) -> Path:
        """The coordinator's liveness file (mtime = last heartbeat)."""
        return self._root / COORDINATOR_HEARTBEAT_NAME

    @property
    def stop_path(self) -> Path:
        """The shutdown marker; its existence tells workers to exit."""
        return self._root / STOP_NAME

    @property
    def shards_dir(self) -> Path:
        """Directory of shard descriptors."""
        return self._root / SHARDS_DIRNAME

    @property
    def leases_dir(self) -> Path:
        """Directory of lease files."""
        return self._root / LEASES_DIRNAME

    @property
    def workers_dir(self) -> Path:
        """Directory of worker registration files."""
        return self._root / WORKERS_DIRNAME

    def shard_path(self, key: str) -> Path:
        """The descriptor file for shard ``key``."""
        return self.shards_dir / f"{key}.task"

    def lease_path(self, key: str) -> Path:
        """The lease file for shard ``key``."""
        return self.leases_dir / f"{key}.lease"

    # -- manifest ----------------------------------------------------------

    def write_manifest(self, exp_id: str, key: str) -> None:
        """Create the spool layout and its CRC-framed manifest."""
        for directory in (
            self.shards_dir, self.leases_dir, self.workers_dir,
            self.store.directory,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.manifest_path, RunHeader(SPOOL_FORMAT, exp_id, key).line()
        )

    def manifest_matches(self, exp_id: str, key: str) -> bool:
        """Whether an existing manifest describes exactly this run.

        A missing, corrupt, or differently-keyed manifest means the
        spool belongs to another computation (or none) and must be
        discarded rather than resumed.
        """
        try:
            first = self.manifest_path.read_text(encoding="utf-8").splitlines()[0]
        except (OSError, IndexError):
            return False
        return RunHeader.parse(first) == RunHeader(SPOOL_FORMAT, exp_id, key)

    def discard(self) -> None:
        """Delete the whole spool tree (after a fully successful run)."""
        if self._root.is_dir():
            shutil.rmtree(self._root, ignore_errors=True)

    # -- shard descriptors -------------------------------------------------

    def write_shard(
        self, key: str, fn: Callable[[Any], Any], task: Any
    ) -> Path:
        """Atomically spool one shard descriptor.

        The descriptor is ``pickle((fn, task))`` framed by a SHA-256
        header line, so a worker can detect a damaged descriptor before
        executing garbage.  ``fn`` and ``task`` must be picklable by
        reference / by value respectively (the same contract as the
        local process-pool backend).
        """
        blob = pickle.dumps((fn, task))
        framed = hashlib.sha256(blob).hexdigest().encode("ascii") + b"\n" + blob
        return atomic_write_bytes(self.shard_path(key), framed)

    def read_shard(self, key: str) -> Optional[Tuple[Callable[[Any], Any], Any]]:
        """Load and verify one shard descriptor, or ``None`` if damaged.

        A damaged descriptor is left in place (the coordinator rewrites
        it on the next grant); the worker simply declines the lease by
        letting it expire.
        """
        path = self.shard_path(key)
        try:
            framed = path.read_bytes()
            digest, _, blob = framed.partition(b"\n")
            if hashlib.sha256(blob).hexdigest().encode("ascii") != digest:
                return None
            fn, task = pickle.loads(blob)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError, TypeError):
            return None
        return fn, task
