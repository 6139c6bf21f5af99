"""A farm worker probes numpy before it registers.

:func:`repro.sim.fastseed.available` runs a probe battery once per
process.  The local pool's parent runs it before forking; a farm worker
runs it at start-up, so the battery never lands inside its first lease
(and that lease's ``farm.lease_seconds`` sample).
"""

from __future__ import annotations

from repro.farm import lease as leasemod
from repro.farm.spool import Spool
from repro.farm.worker import FarmWorker
from repro.sim import fastseed


def test_probe_verdict_is_cached_before_registration(tmp_path, monkeypatch):
    Spool(tmp_path / "spool").write_manifest("figX", "k" * 64)
    worker = FarmWorker(tmp_path / "spool", worker_id="w-probe", coordinator_grace=0)
    monkeypatch.setattr(fastseed, "_verified", None)
    seen = []
    register = leasemod.register_worker

    def recording(spool, worker_id, pid):
        seen.append(fastseed._verified)
        worker.request_stop()
        return register(spool, worker_id, pid)

    monkeypatch.setattr(leasemod, "register_worker", recording)
    assert worker.run() == 0
    assert seen == [fastseed.available()]
    assert seen[0] is not None
