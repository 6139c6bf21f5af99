"""Graceful shutdown: SIGTERM drains in-flight queries, then exit 0.

Drives a real ``tcast-serve run`` subprocess: pipeline a window of
queries, confirm the server has dispatched them all (a trailing ping --
the reader loop is sequential, so its response proves every earlier
line was consumed and admitted), send SIGTERM mid-flight, and require
every admitted query to come back answered before the process exits 0.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

_LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")

#: Queries pipelined before the SIGTERM.
WINDOW = 20


def _spawn_server(*extra_args: str) -> "tuple[subprocess.Popen[str], int]":
    """Start ``tcast-serve run --port 0``; return (process, bound port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.cli",
            "run",
            "--port",
            "0",
            "--workers",
            "1",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = _LISTEN_RE.search(line)
    if match is None:
        proc.kill()
        rest = proc.stdout.read()
        raise AssertionError(f"no listen banner; output: {line!r} {rest!r}")
    return proc, int(match.group(2))


class TestSigtermDrain:
    def test_inflight_queries_finish_before_exit(self):
        proc, port = _spawn_server()
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            reader = sock.makefile("rb")
            # Slow-ish queries so some are genuinely in flight at SIGTERM.
            for i in range(WINDOW):
                wire = {
                    "op": "query",
                    "id": f"q{i}",
                    "n": 256,
                    "x": 80,
                    "threshold": 32,
                    "runs": 50,
                    "seed": i,
                }
                sock.sendall((json.dumps(wire) + "\n").encode())
            sock.sendall(b'{"op": "ping", "id": "fence"}\n')
            # The reader loop is sequential: the fence's response proves
            # every query line before it was dispatched and admitted.
            replies = {}
            while "fence" not in replies:
                obj = json.loads(reader.readline())
                replies[obj["id"]] = obj
            proc.send_signal(signal.SIGTERM)
            # Every admitted query must still be answered post-SIGTERM.
            while len(replies) < WINDOW + 1:
                line = reader.readline()
                assert line, (
                    f"connection closed with {len(replies) - 1}/{WINDOW} "
                    "responses delivered"
                )
                obj = json.loads(line)
                replies[obj["id"]] = obj
            rc = proc.wait(timeout=60)
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert rc == 0
        answered = [r for rid, r in replies.items() if rid != "fence"]
        assert len(answered) == WINDOW
        assert all(r["ok"] and r["status"] == 200 for r in answered)

    def test_new_work_is_shed_while_draining(self):
        """A second SIGTERM scenario: requests sent after the drain began
        are shed with 429 'draining' (when the handler still reads them)
        or the connection closes -- either way the process exits 0."""
        proc, port = _spawn_server()
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            reader = sock.makefile("rb")
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            try:
                sock.sendall(
                    b'{"op": "query", "id": "late", "n": 64, "x": 20, '
                    b'"threshold": 8}\n'
                )
                line = reader.readline()
            except OSError:
                line = b""
            if line:
                obj = json.loads(line)
                assert not obj["ok"]
                assert obj["error"]["code"] == "draining"
            rc = proc.wait(timeout=60)
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert rc == 0

    def test_open_idle_connection_exits_without_traceback(self):
        """A client still connected at SIGTERM: its handler returns on
        the closed connection instead of being cancelled at loop exit,
        which logged a CancelledError traceback."""
        proc, port = _spawn_server()
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            sock.sendall(b'{"op": "ping", "id": "p"}\n')
            assert json.loads(sock.makefile("rb").readline())["ok"]
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert "Traceback" not in output, output
