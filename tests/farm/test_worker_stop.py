"""Worker shutdown latency: the drain loop must not oversleep a stop.

Regression suite for the PR-9 bugfix: the idle branch of
:meth:`repro.farm.worker.FarmWorker.run` used to ``time.sleep`` a full
``poll_interval`` even when the STOP marker already existed, and the
sleep was uninterruptible.  Shutdown latency is now bounded by delivery
(:meth:`FarmWorker.request_stop`, wired to SIGTERM/SIGINT in ``main``)
and the exit conditions are re-checked before going idle.  Both worker
command lines (``python -m repro.farm.worker`` and ``tcast-experiments
farm worker``) install those handlers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.farm.spool import Spool
from repro.farm.worker import FarmWorker

#: An idle period long enough that any regression to interval-bounded
#: shutdown fails the sub-second latency assertions below loudly.
LONG_POLL = 30.0


def _make_spool(root: Path) -> Spool:
    spool = Spool(root)
    spool.write_manifest("figX", "k" * 64)
    return spool


class TestEventBoundedStop:
    def test_request_stop_wakes_an_idle_worker_sub_second(self, tmp_path):
        worker = FarmWorker(
            tmp_path / "spool",
            worker_id="w-idle",
            poll_interval=LONG_POLL,
            coordinator_grace=0,
        )
        _make_spool(tmp_path / "spool")
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(worker.run()), daemon=True
        )
        thread.start()
        # Let the worker register and settle into its idle wait.
        deadline = time.monotonic() + 5.0
        reg = worker.spool.workers_dir / "w-idle.reg"
        while not reg.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert reg.exists(), "worker never registered"
        time.sleep(0.1)  # ensure it is inside the idle wait, not polling
        started = time.monotonic()
        worker.request_stop()
        thread.join(timeout=2.0)
        elapsed = time.monotonic() - started
        assert not thread.is_alive(), "worker did not stop"
        assert elapsed < 1.0, f"stop took {elapsed:.2f}s (interval-bounded?)"
        assert codes == [0]

    def test_stop_marker_is_rechecked_before_sleeping(self, tmp_path):
        """A STOP that lands after the lease poll must not cost a nap.

        The stub lease poll drops the STOP marker itself, reproducing
        the race where shutdown arrives between the loop-top check and
        the idle wait; the re-check must exit without sleeping.
        """
        spool = _make_spool(tmp_path / "spool")

        class _StopDuringPoll(FarmWorker):
            def _my_leases(self):
                self.spool.stop_path.touch()
                return []

        worker = _StopDuringPoll(
            tmp_path / "spool",
            worker_id="w-race",
            poll_interval=LONG_POLL,
            coordinator_grace=0,
        )
        started = time.monotonic()
        assert worker.run() == 0
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"exit took {elapsed:.2f}s (slept the interval)"
        assert spool.stop_path.exists()

    def test_stop_requested_reported_as_exit_reason(self, tmp_path):
        worker = FarmWorker(
            tmp_path / "spool", poll_interval=0.01, coordinator_grace=0
        )
        _make_spool(tmp_path / "spool")
        worker.request_stop()
        assert worker._should_exit(time.time()) == "stop requested"


def _signal_registered_worker(command, reg, signum):
    """Start a worker command line, wait for ``reg``, signal it.

    Returns ``(exit code, seconds from signal to exit)``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", *command],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 15.0
        while not reg.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert reg.exists(), "worker subprocess never registered"
        time.sleep(0.2)  # let it settle into the idle wait
        started = time.monotonic()
        proc.send_signal(signum)
        rc = proc.wait(timeout=5.0)
        return rc, time.monotonic() - started
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class TestSignalBoundedStop:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_stops_a_sleeping_worker_sub_second(
        self, tmp_path, signum
    ):
        spool = _make_spool(tmp_path / "spool")
        reg = spool.workers_dir / "w-sig.reg"
        rc, elapsed = _signal_registered_worker(
            [
                "repro.farm.worker",
                str(spool.root),
                "--worker-id",
                "w-sig",
                "--poll-interval",
                str(LONG_POLL),
                "--coordinator-grace",
                "0",
            ],
            reg,
            signum,
        )
        assert rc == 0
        assert elapsed < 2.0, f"signal stop took {elapsed:.2f}s"
        # Clean exit deregisters the worker.
        assert not reg.exists()

    def test_cli_worker_subcommand_stops_cleanly_on_sigterm(self, tmp_path):
        """``tcast-experiments farm worker`` is the same worker: SIGTERM
        exits 0 and deregisters instead of killing the process."""
        spool = _make_spool(tmp_path / "spool")
        reg = spool.workers_dir / "w-cli.reg"
        rc, _ = _signal_registered_worker(
            [
                "repro.experiments.cli",
                "farm",
                "worker",
                "--spool",
                str(spool.root),
                "--worker-id",
                "w-cli",
                "--coordinator-grace",
                "0",
            ],
            reg,
            signal.SIGTERM,
        )
        assert rc == 0
        assert not reg.exists()
