"""Coordinator loop: grants, collection, reclaim, quarantine, resume.

Workers run as in-process daemon threads here (the worker loop is plain
Python), which keeps these tests fast and deterministic; whole-process
farms with SIGKILLed workers and coordinators live in
``tests/integration/chaos/test_farm_chaos.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import pytest

from repro.api import algorithm_factory
from repro.experiments import resilience
from repro.experiments.common import SweepEngine
from repro.experiments.resilience import (
    RunContext,
    ShardExecutionError,
    ShardJournal,
    ShardRecord,
    SupervisionPolicy,
    shard_id,
)
from repro.farm import FarmCoordinator, FarmPolicy, FarmWorker
from repro.farm import lease as leasemod
from repro.group_testing.model import ModelSpec
from repro.obs import get_registry


@dataclass(frozen=True)
class _Task:
    label: str
    x: int
    run_lo: int
    run_hi: int
    seed: int = 7
    n: int = 16
    threshold: int = 2


def _echo(task):
    return ShardRecord(
        shard_id(task), costs=[float(task.x)] * (task.run_hi - task.run_lo)
    )


def _boom(task):
    raise ValueError("boom inside farm worker")


def _coordinator(tmp_path, **kwargs):
    kwargs.setdefault("exp_id", "figX")
    kwargs.setdefault("run_key", "k" * 64)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("spawn_workers", False)
    kwargs.setdefault(
        "policy",
        FarmPolicy(poll_interval=0.02, heartbeat_grace=2.0, drain_grace=2.0),
    )
    kwargs.setdefault(
        "supervision", SupervisionPolicy(max_retries=2, stall_timeout=30.0)
    )
    return FarmCoordinator(tmp_path / "spool", **kwargs)


def _start_worker(spool_root, worker_id="t1"):
    """Run a farm worker as a daemon thread; returns its join handle."""
    worker = FarmWorker(
        spool_root,
        worker_id=worker_id,
        heartbeat_interval=0.05,
        poll_interval=0.02,
        coordinator_grace=0,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return thread


def _execute(farm, fn, tasks):
    completed, quarantined = {}, {}
    farm.execute(
        list(enumerate(tasks)),
        fn=fn,
        on_complete=lambda i, t, o: completed.__setitem__(i, o.costs),
        on_quarantine=lambda i, t, r: quarantined.__setitem__(i, r),
    )
    return completed, quarantined


@pytest.fixture
def metrics():
    """Arm the process registry so ``farm.*`` counters actually count."""
    reg = get_registry()
    reg.reset()
    reg.enable()
    yield reg
    reg.disable()
    reg.reset()


class TestCoordinator:
    def test_batch_completes_via_worker(self, tmp_path, metrics):
        tasks = [_Task("a", x, 0, 2) for x in range(5)]
        with _coordinator(tmp_path) as farm:
            _start_worker(farm.spool.root)
            completed, quarantined = _execute(farm, _echo, tasks)
        assert quarantined == {}
        assert completed == {i: [float(i)] * 2 for i in range(5)}
        snap = metrics.snapshot()
        granted = snap.counter("farm.leases_granted")
        assert granted >= len(tasks)
        assert granted == (
            snap.counter("farm.leases_completed")
            + snap.counter("farm.leases_expired")
            + snap.counter("farm.leases_quarantined")
        )
        assert snap.counter("farm.shards_spooled") == len(tasks)

    def test_execute_before_start_raises(self, tmp_path):
        farm = _coordinator(tmp_path)
        with pytest.raises(RuntimeError):
            farm.execute([], fn=_echo, on_complete=lambda *a: None,
                         on_quarantine=lambda *a: None)

    def test_resume_completes_from_store_without_workers(
        self, tmp_path, metrics
    ):
        tasks = [_Task("a", x, 0, 3) for x in range(4)]
        with _coordinator(tmp_path) as farm:
            _start_worker(farm.spool.root)
            _execute(farm, _echo, tasks)
        # A "restarted" coordinator: same spool, no workers anywhere.
        metrics.reset()
        with _coordinator(tmp_path, resume=True) as farm2:
            assert farm2.resumed_shards == len(tasks)
            completed, quarantined = _execute(farm2, _echo, tasks)
        assert quarantined == {}
        assert completed == {i: [float(i)] * 3 for i in range(4)}
        snap = metrics.snapshot()
        assert snap.counter("farm.store_hits") == len(tasks)
        assert snap.counter("farm.leases_granted") == 0

    def test_mismatched_spool_is_discarded(self, tmp_path):
        tasks = [_Task("a", 1, 0, 2)]
        with _coordinator(tmp_path) as farm:
            _start_worker(farm.spool.root)
            _execute(farm, _echo, tasks)
        # Same directory, different computation: resume must not leak
        # the old store into the new run.
        farm2 = _coordinator(tmp_path, run_key="j" * 64, resume=True)
        farm2.start()
        try:
            assert farm2.resumed_shards == 0
            assert farm2.spool.store.entry_count() == 0
        finally:
            farm2.shutdown()

    def test_in_shard_error_raises_with_remote_traceback(self, tmp_path):
        tasks = [_Task("algo", 7, 3, 9)]
        with _coordinator(tmp_path) as farm:
            _start_worker(farm.spool.root)
            with pytest.raises(ShardExecutionError) as ei:
                _execute(farm, _boom, tasks)
        err = ei.value
        assert (err.label, err.x, err.run_lo, err.run_hi) == ("algo", 7, 3, 9)
        assert err.error_type == "ValueError"
        assert "boom inside farm worker" in str(err)

    def test_unserved_leases_expire_then_quarantine(self, tmp_path, metrics):
        """A registered worker that never serves its leases exhausts the
        retry budget and the shard is quarantined -- with every grant
        accounted for."""
        farm = _coordinator(
            tmp_path,
            policy=FarmPolicy(
                poll_interval=0.02, heartbeat_grace=0.3, drain_grace=0.5
            ),
            supervision=SupervisionPolicy(max_retries=1, stall_timeout=30.0),
        )
        farm.start()
        stop = threading.Event()

        def keep_alive():
            reg = leasemod.register_worker(farm.spool, "zombie", 999)
            while not stop.wait(0.05):
                leasemod.touch(reg)

        alive = threading.Thread(target=keep_alive, daemon=True)
        alive.start()
        try:
            completed, quarantined = _execute(
                farm, _echo, [_Task("a", 1, 0, 2)]
            )
        finally:
            stop.set()
            alive.join(timeout=5)
            farm.shutdown()
        assert completed == {}
        assert list(quarantined) == [0]
        assert "gave up after 2 lease(s)" in quarantined[0]
        snap = metrics.snapshot()
        assert snap.counter("farm.leases_granted") == 2
        assert snap.counter("farm.leases_expired") == 1
        assert snap.counter("farm.leases_quarantined") == 1
        assert snap.counter("farm.leases_completed") == 0

    def test_dead_worker_is_detected_and_work_re_leased(
        self, tmp_path, metrics
    ):
        """A worker whose heartbeat stops is declared dead; its lease is
        reclaimed and served by a surviving worker."""
        farm = _coordinator(
            tmp_path,
            policy=FarmPolicy(
                poll_interval=0.02, heartbeat_grace=0.3, drain_grace=2.0
            ),
        )
        farm.start()
        try:
            # "ghost" sorts before "t1", so it gets the first grant --
            # then never heartbeats again.
            leasemod.register_worker(farm.spool, "ghost", 999)
            _start_worker(farm.spool.root)
            completed, quarantined = _execute(
                farm, _echo, [_Task("a", 3, 0, 2)]
            )
        finally:
            farm.shutdown()
        assert quarantined == {}
        assert completed == {0: [3.0, 3.0]}
        snap = metrics.snapshot()
        assert snap.counter("farm.worker_deaths") >= 1
        assert snap.counter("farm.leases_granted") == (
            snap.counter("farm.leases_completed")
            + snap.counter("farm.leases_expired")
            + snap.counter("farm.leases_quarantined")
        )


    def test_lease_released_after_collect_is_collected_not_re_leased(
        self, tmp_path, metrics, monkeypatch
    ):
        """A worker that stores its record and deletes its lease between
        a tick's collect pass and its reclaim pass is collected on the
        next tick: one grant, nothing expired."""
        farm = _coordinator(tmp_path)
        farm.start()
        stop = threading.Event()

        def keep_alive():
            reg = leasemod.register_worker(farm.spool, "w1", 999)
            while not stop.wait(0.05):
                leasemod.touch(reg)

        alive = threading.Thread(target=keep_alive, daemon=True)
        alive.start()
        real_reclaim = farm._reclaim
        finished = []

        def finish_then_reclaim(states, queue, on_quarantine):
            # Play the worker: its store write and lease release land
            # after the collect pass ran (and found no entry).
            for state in states.values():
                if state.lease_worker == "w1" and not finished:
                    farm.spool.store.store(
                        state.key,
                        ShardRecord(
                            shard_id(state.task), costs=[5.0, 5.0],
                            worker="w1", attempt=0,
                        ),
                    )
                    farm.spool.lease_path(state.key).unlink()
                    finished.append(state.key)
            real_reclaim(states, queue, on_quarantine)

        monkeypatch.setattr(farm, "_reclaim", finish_then_reclaim)
        try:
            completed, quarantined = _execute(
                farm, _echo, [_Task("a", 5, 0, 2)]
            )
        finally:
            stop.set()
            alive.join(timeout=5)
            farm.shutdown()
        assert finished
        assert quarantined == {}
        assert completed == {0: [5.0, 5.0]}
        snap = metrics.snapshot()
        assert snap.counter("farm.leases_granted") == 1
        assert snap.counter("farm.leases_expired") == 0
        assert snap.counter("farm.leases_completed") == 1
        assert snap.counter("farm.leases_stolen") == 0


class TestEngineFarmIntegration:
    def test_farm_curve_matches_serial(self, tmp_path):
        """The sweep engine routed through a farm produces exactly the
        serial backend's numbers, and journals every shard."""
        serial = SweepEngine(48, 6, runs=6, seed=31, jobs=1)
        baseline = serial.query_curve(
            "2tBins", [0, 3, 6], algorithm_factory("2tbins"),
            ModelSpec(kind="1+", max_queries=48 * 50),
        )
        journal = ShardJournal(
            tmp_path / "j", exp_id="figX", key="k" * 64, fsync=False
        )
        farm = _coordinator(tmp_path)
        ctx = RunContext(journal=journal, farm=farm)
        with farm, resilience.activate(ctx):
            _start_worker(farm.spool.root)
            engine = SweepEngine(48, 6, runs=6, seed=31, jobs=2)
            curve = engine.query_curve(
                "2tBins", [0, 3, 6], algorithm_factory("2tbins"),
                ModelSpec(kind="1+", max_queries=48 * 50),
            )
        assert curve == baseline
        assert journal.appended_records > 0
        assert ctx.degraded == []
