"""Closed-loop load generator for ``tcast-serve`` (one process, one loop).

Opens ``run.JOBS`` TCP connections (never more than the host's CPU
count) and runs the phases of ``--plan`` on one asyncio event loop with
no extra threads.  A phase ``[name, depth, count]`` keeps ``depth``
requests in flight on every connection: each reply is recorded and the
next request goes out at once (a closed loop, because the shipped
clients wait for each reply), until ``count`` requests have been sent;
the phase ends with the last of their replies.  After the last phase
the service's ``metrics`` op is read.

Requests come from one seeded sequence (:func:`make_request`), so the
same ``--seed`` and ``--plan`` send the same requests in the same
phases.  Everything is kept in memory and written as JSON to ``--out``
at the end.  Each reply is recorded as ``[request index, phase name,
sent, replied, ok, status, decisions, queries, phase index]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import random
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from run import JOBS

monotonic = time.monotonic

#: Positive counts drawn for every request; few values, so coalesce keys
#: repeat and loaded groups form.
XS = (4, 12, 16, 20, 48)

#: Kernel-path runs per request, skewed toward 1.  The heaviest class
#: (16 runs of the 2+ capture path) is well above 1% of requests, so the
#: unloaded p99 falls inside it instead of on the cliff at its edge.
KERNEL_RUNS = (1, 1, 1, 1, 2, 2, 4, 8, 16, 16)

#: Share of requests on the vectorized kernel path.
KERNEL_SHARE = 0.8


def make_request(rng: random.Random, idx: int) -> Dict[str, Any]:
    """Request ``idx`` of the serve_mix sequence (draws from ``rng``)."""
    if rng.random() < KERNEL_SHARE:
        algorithm = rng.choice(("2tbins", "exponential"))
        reliable = None
        runs = rng.choice(KERNEL_RUNS)
    else:
        algorithm, reliable = rng.choice(
            (("abns", None), ("prob-abns", None), ("2tbins", "krepeat"))
        )
        runs = rng.randint(1, 4)
    return {
        "op": "query",
        "id": f"q{idx}",
        "tenant": "bench",
        "n": 128,
        "threshold": 16,
        "x": rng.choice(XS),
        "collision_model": rng.choice(("1+", "2+")),
        "algorithm": algorithm,
        "reliable": reliable,
        "runs": runs,
        "seed": rng.randrange(2**31),
    }


class Connection:
    """One pipelined JSON-lines connection; replies matched by ``id``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[str, "asyncio.Future[Tuple[float, Dict[str, Any]]]"] = {}
        self._task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                stamp = monotonic()
                reply = json.loads(line)
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((stamp, reply))
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._pending.clear()

    async def call(self, request: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
        """Send one request; returns ``(reply_stamp, reply)``."""
        future = asyncio.get_running_loop().create_future()
        self._pending[request["id"]] = future
        self._writer.write((json.dumps(request) + "\n").encode("utf-8"))
        await self._writer.drain()
        return await future

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._task


async def run(port: int, seed: int, plan: List[list]) -> Dict[str, Any]:
    rng = random.Random(seed)
    conns = [Connection(*await asyncio.open_connection("127.0.0.1", port))
             for _ in range(JOBS)]
    records: List[list] = []
    requests: List[Dict[str, Any]] = []
    lags: List[float] = []
    phases: List[Dict[str, Any]] = []
    transport_errors = 0
    threads = threading.active_count()

    for phase, (name, depth, count) in enumerate(plan):
        sent = 0
        start = monotonic()

        async def slot(conn: Connection) -> None:
            nonlocal sent, transport_errors
            last: Optional[float] = None
            while sent < count:
                idx = len(requests)
                request = make_request(rng, idx)
                requests.append(request)
                sent += 1
                sent_at = monotonic()
                if last is not None:
                    lags.append(sent_at - last)
                try:
                    last, reply = await conn.call(request)
                except (ConnectionError, OSError):
                    transport_errors += 1
                    records.append([idx, name, sent_at, None, False, None, None, None, phase])
                    return
                records.append([
                    idx, name, sent_at, last, bool(reply.get("ok")), reply.get("status"),
                    reply.get("decisions"), reply.get("queries"), phase,
                ])

        await asyncio.gather(*(slot(c) for c in conns for _ in range(depth)))
        # Sampled while the loop still runs: asyncio.run() joins any
        # executor thread before it returns.
        threads = max(threads, threading.active_count())
        replies = [r[3] for r in records if r[8] == phase and r[3] is not None]
        phases.append({"name": name, "depth": depth, "start": start,
                       "end": max(replies, default=start), "sent": sent})
    _stamp, reply = await conns[0].call({"op": "metrics", "id": "metrics"})
    for conn in conns:
        await conn.close()
    return {
        "requests": requests,
        "records": records,
        "phases": phases,
        "counters": reply["metrics"]["counters"],
        "lags": lags,
        "transport_errors": transport_errors,
        "connections": len(conns),
        "threads": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--plan", required=True, help="JSON list of [name, depth, count]")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()
    out = asyncio.run(run(args.port, args.seed, json.loads(args.plan)))
    out["cpu_s"] = time.process_time()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
