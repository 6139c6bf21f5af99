"""The ``tcast-serve`` console entry point.

Three subcommands::

    tcast-serve run [--host H] [--port P] [--workers N] [...]
    tcast-serve query --port P --n 64 --x 20 --threshold 8 [...]
    tcast-serve metrics --port P

``run`` starts the daemon and blocks until SIGTERM/SIGINT, then drains
gracefully (in-flight queries finish, responses flush) and exits 0; a
Ctrl-C during startup exits 130.  ``query`` and ``metrics`` are thin
:class:`~repro.serve.client.ServeClient` one-shots for smoke tests and
operations.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys
import uuid
from typing import Optional, Sequence

from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.server import ThresholdQueryService

#: ``tcast-serve run``'s defaults: the library's own
#: (:class:`~repro.serve.config.ServeConfig`), on a fixed port where
#: the library picks a free one.
RUN_DEFAULTS = ServeConfig(port=7421)


def _build_parser() -> argparse.ArgumentParser:
    """The ``tcast-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="tcast-serve",
        description="Threshold querying as a service (see DESIGN.md §16).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start the daemon (blocks until SIGTERM)")
    run.add_argument("--host", default=RUN_DEFAULTS.host, help="bind address")
    run.add_argument(
        "--port", type=int, default=RUN_DEFAULTS.port,
        help="bind port (0 picks a free one and prints it)",
    )
    run.add_argument(
        "--max-pending", type=int, default=RUN_DEFAULTS.max_pending,
        help="global cap on admitted-but-unfinished requests",
    )
    run.add_argument(
        "--tenant-rate", type=float, default=RUN_DEFAULTS.tenant_rate,
        help="per-tenant sustained requests/second (0 disables)",
    )
    run.add_argument(
        "--tenant-burst", type=float, default=RUN_DEFAULTS.tenant_burst,
        help="per-tenant burst capacity",
    )
    run.add_argument(
        "--max-batch-runs", type=int, default=RUN_DEFAULTS.max_batch_runs,
        help="cap on total trials per coalesced batch",
    )
    run.add_argument(
        "--workers", type=int, default=RUN_DEFAULTS.workers,
        help="scheduler executor lanes (more pay off only for populations "
        "in the thousands; see DESIGN.md §16.3)",
    )
    run.add_argument(
        "--no-vectorize", action="store_false", dest="vectorize",
        default=RUN_DEFAULTS.vectorize,
        help="force the scalar path (debugging/oracle runs)",
    )
    run.add_argument(
        "--no-metrics", action="store_false", dest="metrics",
        default=RUN_DEFAULTS.metrics,
        help="leave the repro.obs registry disabled",
    )
    run.add_argument(
        "--max-connections", type=int, default=RUN_DEFAULTS.max_connections,
        help="cap on concurrently open client connections",
    )
    run.add_argument(
        "--idle-timeout", type=float, default=RUN_DEFAULTS.idle_timeout,
        help="close a connection idle for this many seconds (0 disables)",
    )
    run.add_argument(
        "--read-deadline", type=float, default=RUN_DEFAULTS.read_deadline,
        help="max seconds to finish one started frame (0 disables)",
    )
    run.add_argument(
        "--max-inflight-per-conn", type=int,
        default=RUN_DEFAULTS.max_inflight_per_conn,
        help="per-connection cap on pipelined in-flight requests",
    )
    run.add_argument(
        "--codel-target-ms", type=float, default=RUN_DEFAULTS.codel_target_ms,
        help="CoDel queue-wait p50 target in ms (0 disables shedding)",
    )
    run.add_argument(
        "--codel-interval-ms", type=float,
        default=RUN_DEFAULTS.codel_interval_ms,
        help="watchdog interval in ms (expired-request purge and CoDel)",
    )

    query = sub.add_parser("query", help="send one threshold query")
    query.add_argument("--host", default="127.0.0.1", help="service host")
    query.add_argument("--port", type=int, required=True, help="service port")
    query.add_argument("--n", type=int, required=True, help="population size")
    query.add_argument("--x", type=int, required=True, help="true positives")
    query.add_argument(
        "--threshold", type=int, required=True, help="the threshold t"
    )
    query.add_argument("--runs", type=int, default=1, help="Monte-Carlo trials")
    query.add_argument("--seed", type=int, default=0, help="request seed")
    query.add_argument(
        "--algorithm", default="2tbins", help="registry algorithm name"
    )
    query.add_argument(
        "--collision-model", default="1+", choices=("1+", "2+"),
        help="collision model",
    )
    query.add_argument(
        "--reliable", default=None, choices=("krepeat", "chernoff"),
        help="server-side reliability layer",
    )
    query.add_argument(
        "--tenant", default="cli", help="rate-limiting principal"
    )
    query.add_argument(
        "--deadline-ms", type=int, default=None,
        help="end-to-end budget in ms (server sheds expired work)",
    )

    metrics = sub.add_parser("metrics", help="dump the live metrics snapshot")
    metrics.add_argument("--host", default="127.0.0.1", help="service host")
    metrics.add_argument("--port", type=int, required=True, help="service port")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    """Start the daemon and block until a drained shutdown."""
    # Every run option's dest is a ServeConfig field.
    config = ServeConfig(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ServeConfig)
        if hasattr(args, f.name)
    })
    return asyncio.run(ThresholdQueryService(config).run())


def _cmd_query(args: argparse.Namespace) -> int:
    """One-shot query against a running service."""
    payload = {
        "op": "query",
        "id": f"cli-{uuid.uuid4().hex[:12]}",
        "tenant": args.tenant,
        "n": args.n,
        "x": args.x,
        "threshold": args.threshold,
        "runs": args.runs,
        "seed": args.seed,
        "algorithm": args.algorithm,
        "collision_model": args.collision_model,
        "reliable": args.reliable,
    }
    with ServeClient(args.host, args.port) as client:
        reply = client.query(payload, deadline_ms=args.deadline_ms)
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0 if reply.get("ok") else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the service's live metrics snapshot as JSON."""
    with ServeClient(args.host, args.port) as client:
        reply = client.request({"op": "metrics"})
    if not reply.get("ok"):
        print(json.dumps(reply, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    print(json.dumps(reply.get("metrics", {}), indent=2, sort_keys=True))
    return 0


def _main(argv: Optional[Sequence[str]]) -> int:
    """Dispatch one parsed command."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "query":
        return _cmd_query(args)
    return _cmd_metrics(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point (``tcast-serve``).

    A ``KeyboardInterrupt`` anywhere -- typically Ctrl-C before the
    daemon's own signal handling is installed, or during a client
    round trip -- exits with the conventional ``130`` (= 128 + SIGINT)
    instead of a traceback, matching ``tcast-experiments``.
    """
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("\n[interrupted]", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
