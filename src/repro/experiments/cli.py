"""``tcast-experiments``: regenerate the paper's figures from the shell.

Examples::

    tcast-experiments list
    tcast-experiments run fig01 --runs 1000 --jobs 4
    tcast-experiments run all --runs 200 --out results/ --no-cache
    tcast-experiments run fig01 --runs 1000 --jobs 4 --resume
    tcast-experiments cache info
    tcast-experiments cache clear
    tcast-experiments journal info

Finished results are cached under ``results/cache/`` keyed by
(experiment, config, seed, code version); re-running an unchanged
configuration loads from disk.  ``--no-cache`` bypasses the cache both
ways, ``--jobs N`` shards sweep trials over ``N`` worker processes
(``--jobs 0`` = all CPUs) with bit-identical results, and
``--metrics out.json`` collects per-layer runtime counters (queries,
retries, cache hits, shard timings) merged across worker processes --
without changing a single result byte.

``run`` executes crash-safely (see DESIGN.md "Resilient execution"):
completed sweep shards are journalled under ``results/journal/``,
worker crashes and hangs are detected and retried, and SIGINT/SIGTERM
drain in-flight work, flush the journal and the metrics snapshot, and
print the exact ``--resume`` command.  ``--resume`` replays the journal
and recomputes only what is missing; the finished CSV is byte-identical
to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import shlex
import signal
import sys
import time
from typing import List, Optional, Sequence

from repro.experiments import resilience
from repro.experiments.atomicio import atomic_write_text
from repro.experiments.common import set_vectorized_dispatch
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from repro.experiments.registry import list_experiments, run_experiment
from repro.obs import get_registry

#: Default run-journal directory, sibling of the result cache.
DEFAULT_JOURNAL_DIR = pathlib.Path("results") / "journal"

#: Default spool directory for ``--backend farm`` runs.
DEFAULT_SPOOL_DIR = pathlib.Path("results") / "spool"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="tcast-experiments",
        description="Reproduce the tcast paper's evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--runs", type=int, default=None, help="repetitions per grid point"
        )
        p.add_argument("--seed", type=int, default=None, help="root seed")
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for sweeps (0 = all CPUs; default serial)",
        )
        p.add_argument(
            "--metrics",
            type=pathlib.Path,
            default=None,
            metavar="OUT.json",
            help="collect runtime metrics and write the merged snapshot "
            "as JSON to this path (default: metrics disabled)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="neither read nor write the on-disk result cache",
        )
        p.add_argument(
            "--no-vectorize",
            action="store_true",
            help="force every sweep cell onto the scalar oracle path "
            "instead of the bit-identical vectorized kernel (parity "
            "debugging; results never differ, only throughput)",
        )
        p.add_argument(
            "--cache-dir",
            type=pathlib.Path,
            default=DEFAULT_CACHE_DIR,
            help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
        )

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="figure id (e.g. fig01) or 'all'")
    add_shared(run_p)
    run_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write <figid>.csv and <figid>.txt into",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="replay the run journal of an interrupted run and compute "
        "only the missing shards (byte-identical final output)",
    )
    run_p.add_argument(
        "--journal-dir",
        type=pathlib.Path,
        default=DEFAULT_JOURNAL_DIR,
        help=f"run-journal directory (default: {DEFAULT_JOURNAL_DIR})",
    )
    run_p.add_argument(
        "--no-journal",
        action="store_true",
        help="disable shard journalling (workers stay supervised; an "
        "interrupted run cannot be resumed)",
    )
    run_p.add_argument(
        "--backend",
        choices=["local", "farm"],
        default="local",
        help="execution backend: 'local' process pool (default) or a "
        "'farm' of coordinator-leased worker processes sharing a spool "
        "directory (requires the run journal; byte-identical output)",
    )
    run_p.add_argument(
        "--spool-dir",
        type=pathlib.Path,
        default=DEFAULT_SPOOL_DIR,
        help=f"farm spool directory (default: {DEFAULT_SPOOL_DIR})",
    )

    rep_p = sub.add_parser(
        "report",
        help="regenerate every figure and grade the paper's claims",
    )
    add_shared(rep_p)
    rep_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="file to write the graded report into",
    )

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=["info", "clear"])
    cache_p.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )

    farm_p = sub.add_parser(
        "farm", help="sweep-farm utilities (see --backend farm)"
    )
    farm_sub = farm_p.add_subparsers(dest="farm_command", required=True)
    fw_p = farm_sub.add_parser(
        "worker",
        help="run one farm worker against a coordinator's spool directory",
    )
    fw_p.add_argument(
        "--spool",
        type=pathlib.Path,
        required=True,
        help="the coordinator's spool directory for this run",
    )
    fw_p.add_argument(
        "--worker-id",
        default=None,
        help="farm-wide unique worker id (default: w<pid>)",
    )
    fw_p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="seconds between lease heartbeat touches",
    )
    fw_p.add_argument(
        "--coordinator-grace",
        type=float,
        default=None,
        help="stale-coordinator seconds tolerated before exiting "
        "(0 disables the check)",
    )

    j_p = sub.add_parser(
        "journal", help="inspect or clear interrupted-run journals"
    )
    j_p.add_argument("action", choices=["info", "clear"])
    j_p.add_argument(
        "--journal-dir",
        type=pathlib.Path,
        default=DEFAULT_JOURNAL_DIR,
        help=f"run-journal directory (default: {DEFAULT_JOURNAL_DIR})",
    )
    return parser


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    return None if args.no_cache else ResultCache(args.cache_dir)


def _start_metrics(path: Optional[pathlib.Path]) -> bool:
    """Arm the process-wide metrics registry when ``--metrics`` was given."""
    if path is None:
        return False
    registry = get_registry()
    registry.reset()
    registry.enable()
    return True


def _finish_metrics(path: Optional[pathlib.Path]) -> None:
    """Write the merged snapshot to ``path`` and disarm the registry.

    Runs from ``finally`` blocks, so the snapshot also lands on
    graceful SIGINT/SIGTERM shutdown; the write is atomic so an
    ill-timed second interrupt cannot leave a truncated JSON file.
    """
    if path is None:
        return
    registry = get_registry()
    snapshot = registry.snapshot()
    registry.disable()
    registry.reset()
    atomic_write_text(path, snapshot.to_json(indent=2) + "\n")
    print(f"[metrics written to {path}]")


def _journal_path(
    journal_dir: pathlib.Path, exp_id: str, key: str
) -> pathlib.Path:
    return journal_dir / f"{exp_id}-{key[:16]}.journal"


def _run_one(
    exp_id: str,
    runs: Optional[int],
    seed: Optional[int],
    out: Optional[pathlib.Path],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    resume: bool = False,
    journal_dir: Optional[pathlib.Path] = None,
    backend: str = "local",
    spool_dir: Optional[pathlib.Path] = None,
) -> List[str]:
    """Run one experiment; returns quarantined-shard descriptions (if any)."""
    kwargs = {}
    if runs is not None:
        kwargs["runs"] = runs
    if seed is not None:
        kwargs["seed"] = seed
    ctx = resilience.RunContext()
    farm = None
    if journal_dir is not None:
        params = dict(kwargs)
        if jobs is not None:
            params["jobs"] = jobs
        params["backend"] = backend
        key = cache_key(exp_id, params)
        journal = resilience.ShardJournal(
            _journal_path(journal_dir, exp_id, key),
            exp_id=exp_id,
            key=key,
            resume=resume,
        )
        if resume and journal.resumed_records:
            print(
                f"[{exp_id}: resuming, {journal.resumed_records} journalled "
                f"shard(s) replayed"
                + (
                    f", {journal.dropped_records} torn record(s) dropped]"
                    if journal.dropped_records
                    else "]"
                )
            )
        ctx.journal = journal
        if backend == "farm":
            from repro.experiments.common import resolve_jobs
            from repro.farm import FarmCoordinator

            root = (spool_dir or DEFAULT_SPOOL_DIR) / f"{exp_id}-{key[:16]}"
            farm = FarmCoordinator(
                root,
                exp_id=exp_id,
                run_key=key,
                workers=resolve_jobs(jobs),
                supervision=ctx.policy,
                resume=resume,
            )
            ctx.farm = farm
    started = time.perf_counter()  # tcast-lint: disable=TCL002 -- wall-clock banner for the operator, not simulation time
    with (
        farm if farm is not None else contextlib.nullcontext()
    ), resilience.activate(ctx):
        if farm is not None and resume and farm.resumed_shards:
            print(
                f"[{exp_id}: farm store seeded with "
                f"{farm.resumed_shards} completed shard(s)]"
            )
        result, from_cache = run_experiment(
            exp_id, cache=cache, jobs=jobs, **kwargs
        )
    elapsed = time.perf_counter() - started  # tcast-lint: disable=TCL002 -- wall-clock banner for the operator, not simulation time
    print(result.report())
    source = "cache" if from_cache else "computed"
    print(f"[{exp_id} completed in {elapsed:.1f}s ({source})]")
    degraded = list(ctx.degraded)
    if degraded:
        kept = (
            f"journal kept at {ctx.journal.path}"
            if ctx.journal is not None
            else "no journal"
        )
        print(
            f"[{exp_id} DEGRADED: {len(degraded)} quarantined shard(s); "
            f"result NOT cached; {kept}]"
        )
        for item in degraded:
            print(f"  quarantined: {item}")
        if farm is not None:
            print(f"  [farm spool kept at {farm.spool.root}]")
    elif ctx.journal is not None:
        # A fully successful run has nothing to resume.
        ctx.journal.discard()
        if farm is not None:
            farm.discard()
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / f"{exp_id}.csv", result.to_csv() + "\n")
        atomic_write_text(out / f"{exp_id}.txt", result.report() + "\n")
    return degraded


def _resume_command(args: argparse.Namespace) -> str:
    """The exact CLI invocation that resumes this interrupted run.

    Every argument is shell-quoted: the command is printed for the
    operator to paste into a shell, and paths like ``--out 'my results'``
    must survive the round trip verbatim.
    """
    parts = ["tcast-experiments", "run", args.experiment]
    if args.runs is not None:
        parts += ["--runs", str(args.runs)]
    if args.seed is not None:
        parts += ["--seed", str(args.seed)]
    if args.jobs is not None:
        parts += ["--jobs", str(args.jobs)]
    if args.no_cache:
        parts += ["--no-cache"]
    if args.no_vectorize:
        parts += ["--no-vectorize"]
    if args.cache_dir != DEFAULT_CACHE_DIR:
        parts += ["--cache-dir", str(args.cache_dir)]
    if args.out is not None:
        parts += ["--out", str(args.out)]
    if args.metrics is not None:
        parts += ["--metrics", str(args.metrics)]
    if args.journal_dir != DEFAULT_JOURNAL_DIR:
        parts += ["--journal-dir", str(args.journal_dir)]
    if args.backend != "local":
        parts += ["--backend", args.backend]
    if args.spool_dir != DEFAULT_SPOOL_DIR:
        parts += ["--spool-dir", str(args.spool_dir)]
    parts.append("--resume")
    return " ".join(shlex.quote(part) for part in parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point.

    Wraps the whole command dispatch in one ``KeyboardInterrupt``
    boundary: a Ctrl-C anywhere outside the sweep engine's own
    ``GracefulShutdown`` window (argument parsing, cache/journal
    subcommands, report rendering, result printing) exits with the
    conventional ``130`` (= 128 + SIGINT) instead of spewing a
    traceback.  Sweep execution itself still drains in-flight shards
    and flushes the journal via ``GracefulShutdown`` first; the
    boundary only catches what that window does not cover.
    """
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("\n[interrupted]", file=sys.stderr)
        return 130


def _main(argv: Optional[Sequence[str]]) -> int:
    """Parse arguments and dispatch to the selected subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for exp_id in list_experiments():
            print(exp_id)
        return 0
    if args.command == "farm":
        from repro.farm.worker import FarmWorker

        worker_kwargs = {}
        if args.heartbeat_interval is not None:
            worker_kwargs["heartbeat_interval"] = args.heartbeat_interval
        if args.coordinator_grace is not None:
            worker_kwargs["coordinator_grace"] = args.coordinator_grace
        worker = FarmWorker(
            args.spool, worker_id=args.worker_id, **worker_kwargs
        )
        return worker.run()
    if args.command == "run":
        if args.backend == "farm" and args.no_journal:
            parser.error(
                "--backend farm requires the run journal: the journal and "
                "the farm's result store are jointly the source of truth "
                "for crash recovery (drop --no-journal)"
            )
        targets = (
            list_experiments() if args.experiment == "all" else [args.experiment]
        )
        cache = _make_cache(args)
        journal_dir = None if args.no_journal else args.journal_dir
        degraded: List[str] = []
        _start_metrics(args.metrics)
        set_vectorized_dispatch(not args.no_vectorize)
        try:
            with resilience.GracefulShutdown():
                for exp_id in targets:
                    degraded += _run_one(
                        exp_id,
                        args.runs,
                        args.seed,
                        args.out,
                        jobs=args.jobs,
                        cache=cache,
                        resume=args.resume,
                        journal_dir=journal_dir,
                        backend=args.backend,
                        spool_dir=args.spool_dir,
                    )
        except resilience.GracefulExit as exc:
            name = signal.Signals(exc.signum).name
            print(f"\n[interrupted by {name}; in-flight shards drained, "
                  f"journal flushed]")
            if journal_dir is not None:
                print(f"[resume with: {_resume_command(args)}]")
            return 128 + exc.signum
        finally:
            set_vectorized_dispatch(True)
            _finish_metrics(args.metrics)
        if degraded:
            print(
                f"[run finished DEGRADED: {len(degraded)} shard(s) "
                f"quarantined after repeated worker failures]"
            )
            return 3
        return 0
    if args.command == "report":
        from repro.experiments.report import generate_report

        _start_metrics(args.metrics)
        set_vectorized_dispatch(not args.no_vectorize)
        try:
            with resilience.GracefulShutdown():
                text = generate_report(
                    runs=args.runs,
                    seed=args.seed,
                    jobs=args.jobs,
                    cache=_make_cache(args),
                )
        except resilience.GracefulExit as exc:
            name = signal.Signals(exc.signum).name
            print(f"\n[interrupted by {name}; in-flight shards drained]")
            return 128 + exc.signum
        finally:
            set_vectorized_dispatch(True)
            _finish_metrics(args.metrics)
        print(text)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(args.out, text + "\n")
        return 0 if "ATTENTION" not in text else 1
    if args.command == "cache":
        cache = ResultCache(args.cache_dir)
        if args.action == "clear":
            removed = cache.clear()
            print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        else:
            print(f"cache directory: {cache.directory}")
            print(f"entries: {cache.entry_count()}")
            print(f"quarantined: {cache.quarantine_count()}")
        return 0
    if args.command == "journal":
        journals = (
            sorted(args.journal_dir.glob("*.journal"))
            if args.journal_dir.is_dir()
            else []
        )
        if args.action == "clear":
            for path in journals:
                path.unlink()
            n = len(journals)
            print(f"removed {n} journal{'' if n == 1 else 's'}")
        else:
            print(f"journal directory: {args.journal_dir}")
            if not journals:
                print("no interrupted runs")
            for path in journals:
                size = path.stat().st_size
                info = resilience.journal_summary(path)
                if info is None:
                    print(f"  {path.name} ({size} bytes, unreadable header)")
                    continue
                detail = (
                    f"{info['shard_records']} shard record(s) covering "
                    f"{info['runs']} run(s) over {info['cells']} cell(s), "
                    f"{info['quarantined_records']} quarantined"
                )
                if info["corrupt_records"]:
                    detail += f", {info['corrupt_records']} corrupt"
                print(f"  {path.name} ({size} bytes): {detail}")
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
