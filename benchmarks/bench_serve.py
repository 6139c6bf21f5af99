"""Service benchmark: latency percentiles and sustained queries/sec.

Standalone script (not collected by pytest) that stands up a real
:mod:`repro.serve` service in-process (background event loop, real TCP)
and measures it:

1. **Identity** -- answers served over the wire must be bit-identical
   to direct per-request scalar execution under fixed seeds, proving
   the service's coalescing changes no numbers end to end.
2. **Throughput** -- client threads pipeline single-run queries through
   the vectorized coalescing path for a fixed wall-clock window; the
   bench reports sustained queries/sec plus p50/p99 per-query latency,
   and **fails** (full mode) if throughput drops below
   :data:`QUERIES_PER_SECOND_FLOOR`.
3. **Degradation** -- the same window with ``reliable=krepeat``
   (scalar confirmation path) for the latency/throughput contrast, and
   a shed window against a tiny token bucket confirming load-shedding
   stays cheap (rejections are counted, not queued).
4. **Fault load** -- a :class:`~repro.serve.chaos.ChaosProxy` injecting
   ~10% connection faults between a
   :class:`~repro.serve.client.RetryingServeClient` and the service.
   Every query must still answer bit-identically; the leg **fails** on
   a blown p99 ratchet (:data:`FAULT_P99_CEILING_MS`), on a wall-clock
   hang (SIGALRM hard bound), or if the client's retry count stops
   reconciling with the proxy's injected-fault ground truth.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--seconds 4]
        [--clients 4] [--window 64] [--out BENCH_serve.json] [--quick]
        [--fault-only]

The JSON lands at the repo root as ``BENCH_serve.json`` by default so
CI can upload it as an artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import signal
import sys
import threading
import time
from datetime import datetime, timezone

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.chaos import ChaosSpec, chaos_in_thread  # noqa: E402
from repro.serve.client import (  # noqa: E402
    ClientRetryPolicy,
    RetryingServeClient,
    ServeClient,
)
from repro.serve.executor import execute_group  # noqa: E402
from repro.serve.request import QueryRequest  # noqa: E402
from repro.serve.server import ServeConfig, serve_in_thread  # noqa: E402

#: Hard floor on sustained throughput over the vectorized coalescing
#: path, in queries (requests) per second.  The acceptance criterion is
#: >= 500 q/s; the floor sits there deliberately -- well under a
#: development machine's measured rate, far above a broken scheduler.
QUERIES_PER_SECOND_FLOOR = 500.0

#: The benchmark population: one coalesce family so every request may
#: share a batch.
BENCH_QUERY = {"n": 64, "x": 20, "threshold": 8, "runs": 1}

#: Per-chunk disconnect probability on each proxy pump direction.  A
#: query round trip crosses the proxy as roughly one chunk per
#: direction, so ~10% of queries lose their connection mid-flight.
FAULT_DISCONNECT_RATE = 0.05

#: p99 ratchet for the fault-load leg, in milliseconds: a retried query
#: pays one reconnect plus a small jittered backoff, never a storm.
FAULT_P99_CEILING_MS = 500.0

#: Hard wall-clock bound on the whole fault-load leg (the no-hang gate).
FAULT_WALL_CLOCK_LIMIT = 180


@contextlib.contextmanager
def _wall_clock_bound(seconds: int, label: str):
    """SIGALRM hard bound: a hang fails the bench instead of wedging CI."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _blow_up(signum, frame):
        raise AssertionError(
            f"{label}: exceeded the {seconds}s wall-clock bound (hang)"
        )

    previous = signal.signal(signal.SIGALRM, _blow_up)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def bench_fault_load(port: int, *, queries: int, enforce_gate: bool) -> dict:
    """Queries through ~10% connection faults: correct, bounded, reconciled."""
    spec = ChaosSpec(p_disconnect=FAULT_DISCONNECT_RATE, seed=29)
    latencies: list = []
    with _wall_clock_bound(FAULT_WALL_CLOCK_LIMIT, "fault_load"):
        with chaos_in_thread("127.0.0.1", port, spec) as chaos:
            client = RetryingServeClient(
                "127.0.0.1",
                chaos.port,
                policy=ClientRetryPolicy(
                    max_attempts=8,
                    base_delay=0.01,
                    max_delay=0.1,
                    breaker_threshold=0,  # faults are the point
                ),
                timeout=10.0,
            )
            for i in range(queries):
                wire = {
                    "op": "query",
                    "id": f"fault-{i}",
                    "tenant": "fault",
                    "seed": i,
                    **BENCH_QUERY,
                    "runs": 2,
                }
                t0 = time.perf_counter()
                reply = client.query(wire, deadline_ms=30_000)
                t1 = time.perf_counter()
                if not reply.get("ok"):
                    raise AssertionError(f"fault-load query failed: {reply}")
                [expected] = execute_group(
                    [QueryRequest.from_wire(wire)], vectorize=False
                )
                if tuple(reply["decisions"]) != expected.decisions:
                    raise AssertionError(
                        f"fault-load answer diverged at seed={i}: "
                        f"{reply} vs {expected}"
                    )
                latencies.append(t1 - t0)
            attempts = client.attempts_made
            client.close()
            injected = chaos.injected
    retries = attempts - queries
    disconnects = injected["disconnects"]
    # Ground-truth reconciliation: every injected disconnect aborts
    # exactly one in-flight attempt, and (absent pathological timeouts)
    # nothing else makes the client retry.
    if retries != disconnects:
        raise AssertionError(
            f"fault-load retries do not reconcile with injected faults: "
            f"{retries} retries vs {disconnects} injected disconnects"
        )
    lat = sorted(latencies)
    p99_ms = _percentile(lat, 0.99) * 1e3
    result = {
        "queries": queries,
        "attempts": attempts,
        "retries": retries,
        "injected_disconnects": disconnects,
        "injected_connections": injected["connections"],
        "latency_p50_ms": round(_percentile(lat, 0.50) * 1e3, 3),
        "latency_p99_ms": round(p99_ms, 3),
        "latency_max_ms": round((lat[-1] if lat else 0.0) * 1e3, 3),
        "p99_ceiling_ms": FAULT_P99_CEILING_MS,
        "gate_enforced": enforce_gate,
        "reconciled": True,
    }
    if enforce_gate and p99_ms > FAULT_P99_CEILING_MS:
        raise AssertionError(
            f"fault_load: p99 {p99_ms:.1f}ms blew the "
            f"{FAULT_P99_CEILING_MS:.0f}ms ratchet under "
            f"{FAULT_DISCONNECT_RATE:.0%}/chunk injected disconnects"
        )
    return result


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def check_identity(port: int) -> dict:
    """Served answers == direct scalar execution, bit for bit."""
    checked = 0
    with ServeClient("127.0.0.1", port) as client:
        for seed in range(20):
            wire = {
                "op": "query",
                "id": f"id-{seed}",
                "tenant": "bench",
                "seed": seed,
                **BENCH_QUERY,
                "runs": 4,
            }
            reply = client.request(wire)
            if not reply.get("ok"):
                raise AssertionError(f"identity query failed: {reply}")
            [expected] = execute_group(
                [QueryRequest.from_wire(wire)], vectorize=False
            )
            if (
                tuple(reply["decisions"]) != expected.decisions
                or tuple(reply["queries"]) != expected.queries
            ):
                raise AssertionError(
                    f"served answer diverged from scalar execution at "
                    f"seed={seed}: {reply} vs {expected}"
                )
            checked += 1
    return {"requests_checked": checked, "identical": True}


def _pump(
    port: int,
    seconds: float,
    window: int,
    tenant: str,
    extra: dict,
    latencies: list,
    errors: list,
) -> None:
    """One client thread: keep ``window`` requests in flight until time.

    Correlates responses by id to time each request individually even
    though the service may answer out of order.
    """
    sent: dict = {}
    counter = 0
    deadline = time.perf_counter() + seconds
    try:
        with ServeClient("127.0.0.1", port, timeout=60.0) as client:
            def send_one() -> None:
                nonlocal counter
                rid = f"{tenant}-{counter}"
                counter += 1
                sent[rid] = time.perf_counter()
                client.send(
                    {
                        "op": "query",
                        "id": rid,
                        "tenant": tenant,
                        "seed": counter,
                        **BENCH_QUERY,
                        **extra,
                    }
                )

            for _ in range(window):
                send_one()
            while time.perf_counter() < deadline:
                reply = client.recv()
                t1 = time.perf_counter()
                t0 = sent.pop(reply["id"], None)
                if not reply.get("ok"):
                    errors.append(reply)
                elif t0 is not None:
                    latencies.append(t1 - t0)
                send_one()
            # Drain what is still in flight (counted, not timed against
            # the window).
            while sent:
                reply = client.recv()
                t1 = time.perf_counter()
                t0 = sent.pop(reply["id"], None)
                if reply.get("ok") and t0 is not None:
                    latencies.append(t1 - t0)
    except (ConnectionError, OSError) as exc:
        errors.append({"error": {"code": "transport", "message": repr(exc)}})


def bench_throughput(
    port: int,
    *,
    seconds: float,
    clients: int,
    window: int,
    label: str,
    extra: dict,
    enforce_gate: bool,
) -> dict:
    """Sustained pipelined load from ``clients`` threads for ``seconds``."""
    latencies: list = []
    errors: list = []
    threads = [
        threading.Thread(
            target=_pump,
            args=(
                port, seconds, window, f"{label}{i}", extra, latencies, errors
            ),
            daemon=True,
        )
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise AssertionError(
            f"{label}: {len(errors)} failed requests, first: {errors[0]}"
        )
    answered = len(latencies)
    qps = answered / elapsed if elapsed > 0 else 0.0
    lat = sorted(latencies)
    result = {
        "clients": clients,
        "window": window,
        "seconds": round(elapsed, 3),
        "queries_answered": answered,
        "queries_per_second": round(qps, 1),
        "latency_p50_ms": round(_percentile(lat, 0.50) * 1e3, 3),
        "latency_p99_ms": round(_percentile(lat, 0.99) * 1e3, 3),
        "latency_max_ms": round((lat[-1] if lat else 0.0) * 1e3, 3),
        "gate_enforced": enforce_gate,
    }
    if enforce_gate and qps < QUERIES_PER_SECOND_FLOOR:
        raise AssertionError(
            f"{label}: sustained throughput {qps:.0f} q/s is below the "
            f"{QUERIES_PER_SECOND_FLOOR:.0f} q/s floor "
            f"({answered} queries in {elapsed:.1f}s)"
        )
    return result


def bench_shedding(seconds: float) -> dict:
    """Load shedding against a tiny token bucket: rejections stay cheap."""
    config = ServeConfig(port=0, tenant_rate=10.0, tenant_burst=10.0)
    with serve_in_thread(config) as handle:
        sent = 0
        shed = 0
        served = 0
        deadline = time.perf_counter() + seconds
        with ServeClient("127.0.0.1", handle.port, timeout=60.0) as client:
            while time.perf_counter() < deadline:
                reply = client.request(
                    {
                        "op": "query",
                        "id": f"s-{sent}",
                        "tenant": "shed",
                        "seed": sent,
                        **BENCH_QUERY,
                    }
                )
                sent += 1
                if reply.get("ok"):
                    served += 1
                elif reply.get("error", {}).get("code") == "rate_limited":
                    shed += 1
                else:
                    raise AssertionError(f"unexpected rejection: {reply}")
            metrics = client.request({"op": "metrics"})["metrics"]
    counters = metrics["counters"]
    if counters.get("serve.rejected.rate_limited", 0) != shed:
        raise AssertionError(
            "shed count disagrees with the service's own counter: "
            f"client saw {shed}, service counted "
            f"{counters.get('serve.rejected.rate_limited', 0)}"
        )
    return {
        "seconds": seconds,
        "sent": sent,
        "served": served,
        "shed": shed,
        "shed_fraction": round(shed / sent, 3) if sent else 0.0,
        "counters_consistent": True,
    }


def main(argv=None) -> int:
    """Run every section and write the JSON summary."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seconds", type=float, default=4.0,
        help="wall-clock window per throughput section",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads for the throughput sections",
    )
    parser.add_argument(
        "--window", type=int, default=64,
        help="pipelined requests each client keeps in flight",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=REPO_ROOT / "BENCH_serve.json",
        help="where to write the JSON summary",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink every leg and skip the throughput gate (CI smoke)",
    )
    parser.add_argument(
        "--fault-only", action="store_true",
        help="run only the identity check and the fault-load leg "
        "(the serve-chaos CI job)",
    )
    args = parser.parse_args(argv)

    seconds = 1.0 if args.quick else args.seconds
    clients = min(2, args.clients) if args.quick else args.clients
    print(
        f"[bench_serve] cpu_count={os.cpu_count()} clients={clients} "
        f"window={args.window} seconds={seconds}"
    )

    config = ServeConfig(port=0)
    with serve_in_thread(config) as handle:
        print(f"[bench_serve] service on port {handle.port}")

        print("[bench_serve] identity: served vs scalar execution ...")
        identity = check_identity(handle.port)
        print(
            f"[bench_serve]   {identity['requests_checked']} requests "
            "bit-identical: OK"
        )

        throughput = None
        reliable = None
        if not args.fault_only:
            throughput, reliable = _healthy_legs(
                handle.port, args, seconds, clients
            )

        fault_queries = 40 if args.quick else 200
        print(
            f"[bench_serve] fault load: {FAULT_DISCONNECT_RATE:.0%}/chunk "
            f"disconnects, {fault_queries} queries ..."
        )
        fault_load = bench_fault_load(
            handle.port,
            queries=fault_queries,
            enforce_gate=not args.quick,
        )
        print(
            f"[bench_serve]   {fault_load['retries']} retries for "
            f"{fault_load['injected_disconnects']} injected disconnects "
            f"(reconciled), p99 {fault_load['latency_p99_ms']}ms "
            f"(ceiling {FAULT_P99_CEILING_MS:.0f}ms"
            f"{'' if fault_load['gate_enforced'] else ', gate skipped'})"
        )

        with ServeClient("127.0.0.1", handle.port) as client:
            counters = client.request({"op": "metrics"})["metrics"]["counters"]

    if args.fault_only:
        shedding = None
    else:
        print("[bench_serve] shedding: tiny token bucket ...")
        shedding = bench_shedding(min(seconds, 2.0))
        print(
            f"[bench_serve]   {shedding['served']} served, "
            f"{shedding['shed']} shed of {shedding['sent']} "
            f"({shedding['shed_fraction']:.0%} shed)"
        )

    payload = {
        "benchmark": "serve",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "fault_only": args.fault_only,
        "queries_per_second_floor": QUERIES_PER_SECOND_FLOOR,
        "identity": identity,
        "throughput": throughput,
        "reliable": reliable,
        "shedding": shedding,
        "fault_load": fault_load,
        "serve_counters": {
            k: v for k, v in sorted(counters.items())
            if k.startswith("serve.")
        },
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_serve] wrote {args.out}")
    return 0


def _healthy_legs(port, args, seconds, clients):
    """The throughput and degradation sections (skipped by --fault-only)."""
    print("[bench_serve] throughput: vectorized coalescing path ...")
    throughput = bench_throughput(
        port,
        seconds=seconds,
        clients=clients,
        window=args.window,
        label="vec",
        extra={},
        enforce_gate=not args.quick,
    )
    gate_note = (
        f"floor {QUERIES_PER_SECOND_FLOOR:.0f} q/s"
        if throughput["gate_enforced"]
        else "gate skipped: quick mode"
    )
    print(
        f"[bench_serve]   {throughput['queries_per_second']} q/s, "
        f"p50 {throughput['latency_p50_ms']}ms, "
        f"p99 {throughput['latency_p99_ms']}ms ({gate_note})"
    )

    print("[bench_serve] degradation: reliable (scalar) path ...")
    reliable = bench_throughput(
        port,
        seconds=seconds,
        clients=clients,
        window=min(args.window, 16),
        label="rel",
        extra={"reliable": "krepeat"},
        enforce_gate=False,
    )
    print(
        f"[bench_serve]   {reliable['queries_per_second']} q/s, "
        f"p50 {reliable['latency_p50_ms']}ms, "
        f"p99 {reliable['latency_p99_ms']}ms (no gate: scalar path)"
    )
    return throughput, reliable


if __name__ == "__main__":
    raise SystemExit(main())
