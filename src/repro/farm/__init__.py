"""Multi-worker sweep farm: coordinator, workers, spool, leases, store.

The ``local`` sweep backend (:mod:`repro.experiments.common` +
:mod:`repro.experiments.resilience`) survives crashes of *worker
processes inside one supervising process*.  This package promotes that
to a farm: a **coordinator** decomposes a sweep into content-keyed
shard descriptors, spools them to a shared directory, and *leases* them
to independently running **worker** processes; workers heartbeat by
touching their lease file; the coordinator reclaims expired leases with
bounded retries and quarantine-after-N.  Each finished shard lands in a
content-addressed **result store** as the same
:class:`~repro.experiments.resilience.ShardRecord` the local backend
journals, plus the worker's metrics snapshot and provenance (atomic
writes, checksum on read, corrupt entries quarantined and recomputed);
the coordinator hands what it loads straight to the sweep's
completion callback.  So *any* participant --
worker, coordinator, or the filesystem under it -- can die mid-run and
``tcast-experiments run --backend farm --resume`` completes the sweep
byte-identically to a serial ``--backend local`` run.

Module map:

* :mod:`repro.farm.spool` -- spool directory layout, framed shard
  descriptors, the :class:`~repro.farm.spool.ShardStore` (the result
  cache's checksummed store of shard records, keyed by
  :func:`~repro.farm.spool.shard_key`).
* :mod:`repro.farm.lease` -- lease files, heartbeats, worker
  registration, staleness checks.
* :mod:`repro.farm.worker` -- the worker loop and the one worker command
  line (flags, logging, SIGTERM/SIGINT handling) behind both
  ``python -m repro.farm.worker SPOOL`` and ``tcast-experiments farm
  worker --spool SPOOL``.
* :mod:`repro.farm.coordinator` -- the coordinator loop
  (:class:`~repro.farm.coordinator.FarmCoordinator`) that the sweep
  engine drives through :class:`repro.experiments.resilience.RunContext`.

See DESIGN.md section "Distributed sweep farm" for the lease state
machine and the recovery walk-throughs.
"""

from repro.farm.coordinator import FarmCoordinator, FarmPolicy
from repro.farm.lease import Lease, LeaseState
from repro.farm.spool import ShardStore, Spool, shard_key
from repro.farm.worker import FarmWorker

__all__ = [
    "FarmCoordinator",
    "FarmPolicy",
    "FarmWorker",
    "Lease",
    "LeaseState",
    "ShardStore",
    "Spool",
    "shard_key",
]
