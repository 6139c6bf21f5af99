"""Chaos scenarios: kill, hang, interrupt, corrupt -- then recover.

Each scenario injects exactly one fault into a real sweep and asserts
the recovered output is **byte-identical** to an uninterrupted golden
run:

* a worker SIGKILLed mid-sweep (supervised requeue, same process),
* a worker hung mid-sweep (stall detection, same process),
* the CLI SIGINT'd at a seeded-random journal point, then ``--resume``,
* the CLI SIGTERM'd (the PR-4 atexit path must still flush metrics),
* a result-cache entry truncated on disk (quarantine + recompute).

The signal scenarios drive the installed CLI in a subprocess with its
own working directory, exactly as an operator would.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import algorithm_factory
from repro.experiments import resilience
from repro.experiments.common import SweepEngine, shutdown_executors
from repro.experiments.resilience import (
    RunContext,
    ShardJournal,
    SupervisionPolicy,
)
from repro.group_testing.model import ModelSpec
from repro.sim.rng import RngRegistry
from tests.integration.chaos.helpers import (
    HangOnceFactory,
    KillAlwaysFactory,
    KillOnceFactory,
)

REPO = Path(__file__).resolve().parents[3]

#: Shared configuration of the subprocess scenarios: one golden run is
#: compared against every interrupted-then-resumed rerun.
RUNS, SEED, JOBS = "60", "7", "2"
CLI_ARGS = ["run", "fig01", "--runs", RUNS, "--seed", SEED,
            "--jobs", JOBS, "--no-cache"]


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


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _cli(args, cwd, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    """The uninterrupted fig01 CSV every scenario must reproduce."""
    cwd = tmp_path_factory.mktemp("golden")
    proc = _cli([*CLI_ARGS, "--out", "golden"], cwd)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return cwd / "golden" / "fig01.csv"


def _interrupt_at_seeded_point(cwd, signum, extra_args=()):
    """Start a CLI run and deliver ``signum`` once the journal holds a
    seeded-random number of records; returns (records_seen, stdout)."""
    # Seeded injection discipline: the chaos point derives from the run
    # configuration, not from test-process entropy.
    chaos_rng = RngRegistry(int(SEED)).fork("chaos").stream(str(signum))
    target_records = int(chaos_rng.integers(1, 4))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli",
         *CLI_ARGS, "--out", "out", *extra_args],
        cwd=cwd,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    journal_dir = cwd / "results" / "journal"
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        journals = list(journal_dir.glob("*.journal"))
        records = (
            len(journals[0].read_text().splitlines()) - 1 if journals else 0
        )
        if records >= target_records:
            proc.send_signal(signum)
            break
        if proc.poll() is not None:
            pytest.fail(
                "run finished before the chaos point was reached:\n"
                + (proc.communicate()[0] or "")
            )
        time.sleep(0.02)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 128 + signum, out
    return target_records, out


class TestSignalResume:
    def test_sigint_then_resume_is_byte_identical(self, tmp_path, golden_csv):
        records, out = _interrupt_at_seeded_point(
            tmp_path, signal.SIGINT, extra_args=["--metrics", "metrics.json"]
        )
        assert "interrupted by SIGINT" in out
        assert "--resume" in out
        # The journal survived the interrupt with >= the records we saw.
        journals = list((tmp_path / "results" / "journal").glob("*.journal"))
        assert len(journals) == 1
        assert len(journals[0].read_text().splitlines()) - 1 >= records
        # The metrics snapshot was flushed on the way out.
        snap = json.loads((tmp_path / "metrics.json").read_text())
        assert snap["counters"].get("resilience.journal_records", 0) >= records
        assert snap["counters"].get("resilience.graceful_exits") == 1

        resumed = _cli([*CLI_ARGS, "--out", "out", "--resume"], tmp_path)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "resuming" in resumed.stdout
        assert (
            (tmp_path / "out" / "fig01.csv").read_bytes()
            == golden_csv.read_bytes()
        )
        # A completed run discards its journal.
        assert list((tmp_path / "results" / "journal").glob("*.journal")) == []

    def test_sigterm_flushes_metrics_and_resumes(self, tmp_path, golden_csv):
        records, out = _interrupt_at_seeded_point(
            tmp_path, signal.SIGTERM, extra_args=["--metrics", "metrics.json"]
        )
        assert "interrupted by SIGTERM" in out
        # Abnormal exit still produced a complete, parseable snapshot
        # (the atexit/finally flush path), written atomically.
        snap = json.loads((tmp_path / "metrics.json").read_text())
        assert snap["counters"].get("resilience.journal_records", 0) >= records

        resumed = _cli([*CLI_ARGS, "--out", "out", "--resume"], tmp_path)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert (
            (tmp_path / "out" / "fig01.csv").read_bytes()
            == golden_csv.read_bytes()
        )


def _chaos_policy():
    return SupervisionPolicy(
        max_retries=3,
        stall_timeout=2.0,
        poll_interval=0.05,
        backoff_base=0.0,
        drain_grace=2.0,
    )


def _curve(engine, factory):
    return engine.query_curve(
        "2tBins",
        [0, 4, 8],
        factory,
        ModelSpec(kind="1+", max_queries=64 * 50),
        check_exactness=False,
    )


def _journal(path):
    return ShardJournal(path, exp_id="chaos", key="k" * 64, fsync=False)


class TestWorkerFaults:
    def test_worker_killed_mid_sweep_result_identical(self, tmp_path):
        engine = SweepEngine(64, 8, runs=12, seed=77, jobs=2)
        baseline = _curve(engine, algorithm_factory("2tbins"))
        ctx = RunContext(
            journal=_journal(tmp_path / "j"), policy=_chaos_policy()
        )
        with resilience.activate(ctx):
            chaotic = _curve(
                engine, KillOnceFactory(str(tmp_path / "killed"))
            )
        assert (tmp_path / "killed").exists()  # the fault really fired
        assert ctx.degraded == []
        assert chaotic == baseline

    def test_worker_hung_mid_sweep_result_identical(self, tmp_path):
        engine = SweepEngine(64, 8, runs=12, seed=77, jobs=2)
        baseline = _curve(engine, algorithm_factory("2tbins"))
        ctx = RunContext(
            journal=_journal(tmp_path / "j"), policy=_chaos_policy()
        )
        with resilience.activate(ctx):
            chaotic = _curve(
                engine, HangOnceFactory(str(tmp_path / "hung"))
            )
        assert (tmp_path / "hung").exists()
        assert ctx.degraded == []
        assert chaotic == baseline


class TestContextFreeSupervision:
    """With no RunContext installed the engine still supervises: it
    builds a journal-less context for each batch."""

    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr(resilience, "_backoff", lambda policy, n: None)

    def test_worker_killed_without_context_result_identical(self, tmp_path):
        serial = _curve(
            SweepEngine(64, 8, runs=12, seed=77, jobs=1),
            algorithm_factory("2tbins"),
        )
        assert resilience.current_context() is None
        chaotic = _curve(
            SweepEngine(64, 8, runs=12, seed=77, jobs=2),
            KillOnceFactory(str(tmp_path / "killed")),
        )
        assert (tmp_path / "killed").exists()
        assert chaotic == serial

    def test_worker_killed_every_attempt_raises_naming_the_shard(self):
        engine = SweepEngine(64, 8, runs=2, seed=77, jobs=2)
        assert resilience.current_context() is None
        with pytest.raises(RuntimeError, match="quarantined") as ei:
            engine.query_curve(
                "2tBins",
                [4],
                KillAlwaysFactory(),
                ModelSpec(kind="1+", max_queries=64 * 50),
                check_exactness=False,
            )
        message = str(ei.value)
        # Two run blocks, both given up after 1 + max_retries attempts.
        assert "'2tBins' x=4 runs [0,1)" in message
        assert "'2tBins' x=4 runs [1,2)" in message
        assert message.count("gave up after 4 attempts") == 2


class TestCacheCorruption:
    def test_truncated_cache_entry_quarantined_and_recomputed(self, tmp_path):
        args = ["run", "fig01", "--runs", "6", "--seed", "3"]
        first = _cli([*args, "--out", "a"], tmp_path)
        assert first.returncode == 0, first.stdout + first.stderr
        entries = list((tmp_path / "results" / "cache").glob("*.json"))
        assert len(entries) == 1
        blob = entries[0].read_bytes()
        entries[0].write_bytes(blob[: len(blob) // 2])

        second = _cli([*args, "--out", "b"], tmp_path)
        assert second.returncode == 0, second.stdout + second.stderr
        assert "(computed)" in second.stdout  # not served from cache
        assert (
            (tmp_path / "a" / "fig01.csv").read_bytes()
            == (tmp_path / "b" / "fig01.csv").read_bytes()
        )
        quarantined = list(
            (tmp_path / "results" / "cache" / ".quarantine").glob("*.json")
        )
        assert len(quarantined) == 1

        info = _cli(["cache", "info"], tmp_path)
        assert "quarantined: 1" in info.stdout
