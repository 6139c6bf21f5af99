"""Crash-safe execution layer: journal, supervision, cache integrity.

In-process coverage of :mod:`repro.experiments.resilience` and its
integration with the sweep engine: CRC-framed journal round-trips and
torn-tail repair, resume bit-identity (including across *different*
shard boundaries), supervised requeue/quarantine on killed and hung
workers, worker-side error reporting with remote tracebacks, result
cache checksums and quarantine, and graceful-shutdown signal handling.
Whole-process chaos scenarios (SIGINT a live CLI run, resume, ``cmp``
the CSVs) live in ``tests/integration/chaos/``.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.api import algorithm_factory
from repro.experiments import resilience
from repro.experiments.atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    checksum_line,
    parse_checksum_line,
)
from repro.experiments.cache import ResultCache
from repro.experiments.common import (
    ExperimentResult,
    Series,
    SweepEngine,
    shutdown_executors,
)
from repro.experiments.resilience import (
    GracefulExit,
    GracefulShutdown,
    RunContext,
    ShardExecutionError,
    ShardJournal,
    ShardOutcome,
    SupervisionPolicy,
    run_supervised,
)
from repro.group_testing.model import ModelSpec
from repro.obs import get_registry


@pytest.fixture(scope="module", autouse=True)
def _fake_multicore():
    """Pretend the host has >= 4 CPUs (see test_parallel.py)."""
    real = os.cpu_count
    mp = pytest.MonkeyPatch()
    mp.setattr(os, "cpu_count", lambda: max(4, real() or 1))
    yield
    mp.undo()


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_executors()


# ---------------------------------------------------------------------------
# atomicio
# ---------------------------------------------------------------------------


class TestAtomicIO:
    def test_write_bytes_and_no_tmp_left_behind(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"payload", fsync=False)
        assert target.read_bytes() == b"payload"
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_write_text_replaces_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new", fsync=False)
        assert target.read_text() == "new"

    def test_checksum_line_roundtrip(self):
        line = checksum_line('{"a":1}')
        assert line.endswith("\n")
        assert parse_checksum_line(line) == '{"a":1}'

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "short",
            "zzzzzzzz {}",  # non-hex checksum
            "00000000 {}",  # wrong checksum
            checksum_line("{}").replace("{", "["),  # flipped payload byte
        ],
    )
    def test_corrupt_lines_rejected(self, line):
        assert parse_checksum_line(line.rstrip("\n")) is None


# ---------------------------------------------------------------------------
# ShardJournal
# ---------------------------------------------------------------------------


def _journal(path, **kwargs):
    kwargs.setdefault("exp_id", "figX")
    kwargs.setdefault("key", "k" * 64)
    kwargs.setdefault("fsync", False)
    return ShardJournal(path, **kwargs)


class TestShardJournal:
    def test_record_lookup_roundtrip(self, tmp_path):
        j = _journal(tmp_path / "j")
        j.record("algo", 4, 0, 3, [1.0, 2.0, 3.0])
        assert j.lookup("algo", 4, 0, 3) == [1.0, 2.0, 3.0]
        assert j.lookup("algo", 4, 0, 4) is None  # run 3 missing
        assert j.lookup("algo", 5, 0, 3) is None
        j.close()

    def test_lookup_spans_shard_boundaries(self, tmp_path):
        """Per-run merging: any block covered by records is answerable."""
        j = _journal(tmp_path / "j")
        j.record("algo", 4, 0, 4, [0.0, 1.0, 2.0, 3.0])
        j.record("algo", 4, 4, 8, [4.0, 5.0, 6.0, 7.0])
        assert j.lookup("algo", 4, 2, 6) == [2.0, 3.0, 4.0, 5.0]
        assert j.lookup("algo", 4, 0, 8) == [float(i) for i in range(8)]
        j.close()

    def test_resume_replays_records(self, tmp_path):
        path = tmp_path / "j"
        j1 = _journal(path)
        j1.record("algo", 4, 0, 2, [1.5, 2.5])
        j1.close()
        j2 = _journal(path, resume=True)
        assert j2.resumed_records == 1
        assert j2.lookup("algo", 4, 0, 2) == [1.5, 2.5]
        j2.close()

    def test_torn_tail_dropped_and_compacted(self, tmp_path):
        path = tmp_path / "j"
        j1 = _journal(path)
        j1.record("algo", 4, 0, 2, [1.0, 2.0])
        j1.record("algo", 8, 0, 2, [3.0, 4.0])
        j1.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('deadbeef {"label":"algo","x":12,"lo":0,"hi')  # torn
        j2 = _journal(path, resume=True)
        assert j2.resumed_records == 2
        assert j2.dropped_records == 1
        assert j2.lookup("algo", 12, 0, 2) is None
        j2.close()
        # Compaction rewrote a fully valid file.
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 records
        assert all(parse_checksum_line(line) is not None for line in lines)

    def test_key_mismatch_starts_fresh(self, tmp_path):
        path = tmp_path / "j"
        j1 = _journal(path, key="a" * 64)
        j1.record("algo", 4, 0, 2, [1.0, 2.0])
        j1.close()
        j2 = _journal(path, key="b" * 64, resume=True)
        assert j2.resumed_records == 0
        assert j2.lookup("algo", 4, 0, 2) is None
        j2.close()

    def test_no_resume_discards_existing(self, tmp_path):
        path = tmp_path / "j"
        j1 = _journal(path)
        j1.record("algo", 4, 0, 2, [1.0, 2.0])
        j1.close()
        j2 = _journal(path, resume=False)
        assert j2.lookup("algo", 4, 0, 2) is None
        j2.close()

    def test_discard_removes_file(self, tmp_path):
        path = tmp_path / "j"
        j = _journal(path)
        j.record("algo", 4, 0, 2, [1.0, 2.0])
        j.discard()
        assert not path.exists()


class TestJournalQuarantineRecords:
    def test_quarantine_counted_and_retried_on_resume(self, tmp_path):
        """Quarantine records survive resume as documentation but never
        satisfy a lookup: the resumed run retries the shard."""
        path = tmp_path / "j"
        j1 = _journal(path)
        j1.record("algo", 1, 0, 2, [1.0, 2.0])
        j1.record_quarantine("algo", 2, 0, 2, "worker died twice")
        assert j1.quarantined_records == 1
        j1.close()
        j2 = _journal(path, resume=True)
        assert j2.resumed_records == 1
        assert j2.quarantined_records == 1
        assert j2.dropped_records == 0
        assert j2.lookup("algo", 1, 0, 2) == [1.0, 2.0]
        assert j2.lookup("algo", 2, 0, 2) is None  # retried, not skipped
        j2.close()

    def test_quarantine_survives_compaction(self, tmp_path):
        """A torn tail triggers compaction; the quarantine record must
        be preserved in the rewritten file."""
        path = tmp_path / "j"
        j1 = _journal(path)
        j1.record("algo", 1, 0, 2, [1.0, 2.0])
        j1.record_quarantine("algo", 2, 0, 2, "hung pool")
        j1.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('deadbeef {"label":"algo","x":9,"lo":0,"hi')  # torn
        j2 = _journal(path, resume=True)
        assert j2.dropped_records == 1
        assert j2.quarantined_records == 1
        j2.close()
        j3 = _journal(path, resume=True)
        assert j3.quarantined_records == 1
        assert j3.dropped_records == 0
        j3.close()

    def test_mark_degraded_journals_quarantine(self, tmp_path):
        ctx = RunContext(journal=_journal(tmp_path / "j"))
        ctx.mark_degraded(_Task("algo", 3, 0, 2), "gave up after 2 attempts")
        assert len(ctx.degraded) == 1
        assert ctx.journal.quarantined_records == 1

    def test_journal_summary_counts(self, tmp_path):
        path = tmp_path / "j"
        j = _journal(path)
        j.record("algo", 1, 0, 2, [1.0, 2.0])
        j.record("algo", 2, 0, 3, [1.0, 2.0, 3.0])
        j.record_quarantine("algo", 3, 0, 2, "sick host")
        j.close()
        info = resilience.journal_summary(path)
        assert info is not None
        assert info["exp_id"] == "figX"
        assert info["shard_records"] == 2
        assert info["quarantined_records"] == 1
        assert info["cells"] == 2
        assert info["runs"] == 5
        assert info["corrupt_records"] == 0

    def test_journal_summary_unreadable_is_none(self, tmp_path):
        assert resilience.journal_summary(tmp_path / "missing") is None
        bad = tmp_path / "bad"
        bad.write_text("not a header\n")
        assert resilience.journal_summary(bad) is None


# ---------------------------------------------------------------------------
# ResultCache integrity
# ---------------------------------------------------------------------------


def _result():
    return ExperimentResult(
        exp_id="figX",
        title="test",
        parameters={"runs": 2},
        series=(Series(label="s", xs=(1.0, 2.0), ys=(3.0, 4.0)),),
    )


class TestCacheIntegrity:
    def test_roundtrip_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("figX", {"runs": 2}, _result())
        assert cache.load("figX", {"runs": 2}) == _result()
        assert cache.quarantine_count() == 0

    def test_tampered_payload_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("figX", {"runs": 2}, _result())
        data = json.loads(path.read_text())
        data["result"]["title"] = "tampered"  # checksum now stale
        path.write_text(json.dumps(data))
        assert cache.load("figX", {"runs": 2}) is None
        assert not path.exists()
        assert cache.quarantine_count() == 1
        # The quarantined entry never comes back.
        assert cache.load("figX", {"runs": 2}) is None

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("figX", {"runs": 2}, _result())
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        assert cache.load("figX", {"runs": 2}) is None
        assert cache.quarantine_count() == 1

    def test_missing_checksum_field_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("figX", {"runs": 2}, _result())
        data = json.loads(path.read_text())
        del data["checksum"]
        path.write_text(json.dumps(data))
        assert cache.load("figX", {"runs": 2}) is None
        assert cache.quarantine_count() == 1


# ---------------------------------------------------------------------------
# run_supervised (module-level workers: picklable under fork)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Task:
    label: str
    x: int
    run_lo: int
    run_hi: int
    sentinel: str = ""


def _echo(task):
    return ShardOutcome(
        costs=[float(task.x)] * (task.run_hi - task.run_lo)
    )


def _error(task):
    return ShardOutcome(
        error_type="ValueError",
        remote_traceback="Traceback (most recent call last): boom",
    )


def _kill_self(task):
    os.kill(os.getpid(), signal.SIGKILL)
    return ShardOutcome(costs=[])  # pragma: no cover - never reached


def _kill_once(task):
    """Kill the worker the first time only (exclusive-create sentinel)."""
    try:
        open(task.sentinel, "x").close()
    except FileExistsError:
        return _echo(task)
    os.kill(os.getpid(), signal.SIGKILL)
    return ShardOutcome(costs=[])  # pragma: no cover - never reached


def _hang_once(task):
    """Hang the worker the first time only."""
    try:
        open(task.sentinel, "x").close()
    except FileExistsError:
        return _echo(task)
    time.sleep(60)
    return ShardOutcome(costs=[])  # pragma: no cover - killed first


def _policy(**kwargs):
    kwargs.setdefault("max_retries", 2)
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("drain_grace", 1.0)
    return SupervisionPolicy(**kwargs)


def _supervise(fn, tasks, policy, jobs=2):
    completed, quarantined = {}, {}
    run_supervised(
        fn,
        list(enumerate(tasks)),
        jobs=jobs,
        context=RunContext(policy=policy),
        on_complete=lambda i, t, o: completed.__setitem__(i, o.costs),
        on_quarantine=lambda i, t, r: quarantined.__setitem__(i, r),
    )
    return completed, quarantined


class TestRunSupervised:
    def test_all_shards_complete(self):
        tasks = [_Task("a", x, 0, 2) for x in range(6)]
        completed, quarantined = _supervise(_echo, tasks, _policy())
        assert quarantined == {}
        assert completed == {i: [float(i)] * 2 for i in range(6)}

    def test_in_shard_error_aborts_with_coordinates(self):
        tasks = [_Task("algo", 7, 3, 9)]
        with pytest.raises(ShardExecutionError) as ei:
            _supervise(_error, tasks, _policy())
        err = ei.value
        assert (err.label, err.x, err.run_lo, err.run_hi) == ("algo", 7, 3, 9)
        assert err.error_type == "ValueError"
        assert "boom" in str(err)

    def test_killed_worker_is_requeued_then_succeeds(self, tmp_path):
        tasks = [_Task("a", 3, 0, 2, sentinel=str(tmp_path / "s"))]
        completed, quarantined = _supervise(
            _kill_once, tasks, _policy(), jobs=1
        )
        assert quarantined == {}
        assert completed == {0: [3.0, 3.0]}

    def test_repeatedly_killed_worker_is_quarantined(self):
        tasks = [_Task("a", 3, 0, 2)]
        completed, quarantined = _supervise(
            _kill_self, tasks, _policy(max_retries=1), jobs=1
        )
        assert completed == {}
        assert list(quarantined) == [0]
        assert "gave up after 2 attempts" in quarantined[0]

    def test_hung_worker_detected_and_requeued(self, tmp_path):
        tasks = [_Task("a", 5, 0, 2, sentinel=str(tmp_path / "s"))]
        completed, quarantined = _supervise(
            _hang_once, tasks, _policy(stall_timeout=1.0), jobs=1
        )
        assert quarantined == {}
        assert completed == {0: [5.0, 5.0]}

    def test_stall_deadline_from_policy_and_observations(self):
        assert _policy(stall_timeout=7.0).stall_deadline(100.0) == 7.0
        p = _policy()
        assert p.stall_deadline(0.0) == p.stall_default
        assert p.stall_deadline(10.0) == p.stall_factor * 10.0
        assert p.stall_deadline(0.001) == p.stall_floor


class TestStallColdStart:
    """Satellite 1: the cold-start fallback is an explicit, documented
    constant and is logged exactly once per process."""

    @pytest.fixture(autouse=True)
    def _fresh_flag(self, monkeypatch):
        monkeypatch.setattr(resilience, "_stall_cold_start_logged", False)

    def test_default_is_the_documented_constant(self):
        p = SupervisionPolicy()
        assert p.stall_default == resilience.STALL_COLD_START_DEFAULT
        assert p.stall_deadline(0.0) == resilience.STALL_COLD_START_DEFAULT

    def test_cold_start_logged_exactly_once(self, caplog):
        p = _policy()
        with caplog.at_level(
            logging.INFO, logger="repro.experiments.resilience"
        ):
            assert p.stall_deadline(0.0) == p.stall_default
            assert p.stall_deadline(0.0) == p.stall_default  # second hit
        hits = [r for r in caplog.records if "cold start" in r.message]
        assert len(hits) == 1

    def test_observed_branch_does_not_log(self, caplog):
        p = _policy()
        with caplog.at_level(
            logging.INFO, logger="repro.experiments.resilience"
        ):
            assert p.stall_deadline(10.0) == p.stall_factor * 10.0
        assert not [r for r in caplog.records if "cold start" in r.message]

    def test_histogram_observation_ends_cold_start(self):
        """Once any shard duration lands in ``sweep.shard_seconds``, the
        deadline adapts even with no supervisor-local observation."""
        from repro.experiments import common

        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            common._S_SHARD_SECONDS.observe(12.0)
            p = _policy()
            assert p.stall_deadline(0.0) == p.stall_factor * 12.0
        finally:
            reg.disable()
            reg.reset()


# ---------------------------------------------------------------------------
# Engine integration: resume bit-identity, degraded runs, error reporting
# ---------------------------------------------------------------------------


class _BoomAlgo:
    def decide(self, model, threshold, rng):
        raise ValueError("boom inside worker")


def _boom_factory(x):
    return _BoomAlgo()


def _engine(jobs, runs=8):
    return SweepEngine(64, 8, runs=runs, seed=77, jobs=jobs)


def _curve(engine):
    return engine.query_curve(
        "2tBins",
        [0, 4, 8],
        algorithm_factory("2tbins"),
        ModelSpec(kind="1+", max_queries=64 * 50),
    )


class TestEngineResume:
    def test_serial_resume_skips_everything_and_matches(self, tmp_path):
        path = tmp_path / "j"
        ctx1 = RunContext(journal=_journal(path))
        with resilience.activate(ctx1):
            baseline = _curve(_engine(1))
        assert ctx1.journal.appended_records == 3  # one shard per x
        ctx2 = RunContext(journal=_journal(path, resume=True))
        with resilience.activate(ctx2):
            resumed = _curve(_engine(1))
        assert ctx2.journal.appended_records == 0
        assert resumed == baseline

    def test_partial_resume_recomputes_only_missing(self, tmp_path):
        path = tmp_path / "j"
        ctx1 = RunContext(journal=_journal(path))
        with resilience.activate(ctx1):
            baseline = _curve(_engine(1))
        # Truncate to header + first record: a crash after one shard.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))
        ctx2 = RunContext(journal=_journal(path, resume=True))
        with resilience.activate(ctx2):
            resumed = _curve(_engine(1))
        assert ctx2.journal.resumed_records == 1
        assert ctx2.journal.appended_records == 2
        assert resumed == baseline

    def test_resume_across_different_shard_boundaries(self, tmp_path):
        """A serial journal must satisfy a parallel resume (and back)."""
        path = tmp_path / "j"
        ctx1 = RunContext(journal=_journal(path))
        with resilience.activate(ctx1):
            baseline = _curve(_engine(1))
        ctx2 = RunContext(journal=_journal(path, resume=True))
        with resilience.activate(ctx2):
            resumed = _curve(_engine(4))
        assert ctx2.journal.appended_records == 0  # every block covered
        assert resumed == baseline

    def test_supervised_parallel_matches_serial(self, tmp_path):
        plain = _curve(_engine(2))
        ctx = RunContext(journal=_journal(tmp_path / "j"))
        with resilience.activate(ctx):
            supervised = _curve(_engine(2))
        assert supervised == plain
        assert ctx.degraded == []

    @pytest.mark.parametrize("with_context", [False, True])
    def test_worker_error_reports_coordinates(self, tmp_path, with_context):
        engine = _engine(2)
        spec = ModelSpec(kind="1+", max_queries=64 * 50)
        if with_context:
            ctx = RunContext(
                journal=_journal(tmp_path / "j"), policy=_policy()
            )
            with resilience.activate(ctx):
                with pytest.raises(ShardExecutionError) as ei:
                    engine.query_curve(
                        "boom", [0, 4], _boom_factory, spec,
                        check_exactness=False,
                    )
        else:
            with pytest.raises(ShardExecutionError) as ei:
                engine.query_curve(
                    "boom", [0, 4], _boom_factory, spec,
                    check_exactness=False,
                )
        err = ei.value
        assert err.label == "boom"
        assert err.error_type == "ValueError"
        assert "boom inside worker" in err.remote_traceback
        assert "ValueError" in str(err)

    def test_metrics_survive_repeated_arm_disarm_cycles(self, tmp_path):
        """Counters and pools stay sane across enable/run/disable loops."""
        reg = get_registry()
        for cycle in range(3):
            reg.reset()
            reg.enable()
            ctx = RunContext(journal=_journal(tmp_path / f"j{cycle}"))
            with resilience.activate(ctx):
                _curve(_engine(2))
            snap = reg.snapshot()
            # 3 xs x 3 run-blocks per cell at jobs=2 (oversubscription).
            assert snap.counters.get("resilience.journal_records", 0) == 9
            reg.disable()
            reg.reset()
            shutdown_executors()
        assert resilience._POOLS == {}


class TestIdleBrokenPool:
    def test_sweep_recycles_a_pool_that_broke_while_idle(
        self, tmp_path, monkeypatch
    ):
        """A worker that dies between batches breaks the cached pool, so
        the next ``submit`` raises; supervision recycles and requeues."""
        baseline = _curve(_engine(1))
        pool = resilience._get_pool(2)
        pids = [f.result() for f in [pool.submit(os.getpid) for _ in range(4)]]
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken  # the executor noticed: submit() now raises
        monkeypatch.setattr(resilience, "_backoff", lambda policy, n: None)
        reg = get_registry()
        reg.reset()
        reg.enable()
        try:
            ctx = RunContext(journal=_journal(tmp_path / "j"))
            with resilience.activate(ctx):
                recovered = _curve(_engine(2))
            snap = reg.snapshot()
        finally:
            reg.disable()
            reg.reset()
        assert recovered == baseline
        assert ctx.degraded == []
        assert snap.counter("resilience.worker_failures") == 1
        assert snap.counter("resilience.pool_recycles") == 1
        assert resilience._get_pool(2) is not pool


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_first_signal_raises_graceful_exit(self, signum):
        before = signal.getsignal(signum)
        with pytest.raises(GracefulExit) as ei:
            with GracefulShutdown():
                os.kill(os.getpid(), signum)
                time.sleep(5)  # pragma: no cover - signal interrupts
        assert ei.value.signum == signum
        assert signal.getsignal(signum) is before  # handler restored

    def test_exit_restores_handlers_without_signal(self):
        before = {s: signal.getsignal(s) for s in GracefulShutdown.SIGNALS}
        with GracefulShutdown() as gs:
            assert gs.requested is None
        after = {s: signal.getsignal(s) for s in GracefulShutdown.SIGNALS}
        assert before == after
