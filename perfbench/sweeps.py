"""The ``fig01`` and ``fig02`` workloads: figure sweeps through the CLI.

Each sweep is one ``tcast-experiments run <fig> --jobs 2 --no-cache
--runs R --seed S`` in a freshly launched process (``sweep_child.py``),
exactly as a user regenerates a figure, with the default run journal
(in a scratch directory) and the supervised pool.  Sweeps are launched
back to back until ``--seconds`` have passed; sweep ``i`` uses the
``i``-th seed drawn from the workload seed.

A sweep hands its shards to the worker pool the way a client hands
requests to a server, so the serve-style metrics apply to shards:
``loaded_*`` is a shard's response time (pool submit to result in the
parent, queueing included), ``unloaded_*`` its service time inside the
worker, ``loaded_qps`` shards answered per second of sweep wall time.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import stats
from run import JOBS, BenchError, Context, Report, monotonic_now, zero_unused

#: Runs per grid point, chosen so one sweep takes about 1.5 s on a
#: 2-CPU host: a 30 s window then holds about 15 sweeps, and their
#: 124-shard grids give the 1000+ shard samples a supported p99 needs.
RUNS = {"fig01": 80, "fig02": 160}

#: Cells per run recomputed on the scalar oracle after the timed window.
ORACLE_CELLS = 4

#: Worker busy time from the spans may exceed the engine's own
#: ``sweep.shard_compute`` timer (it encloses it) by at most this share.
BUSY_TOLERANCE = 0.05


def sweep_seeds(seed: int):
    """The workload's sweep seeds: an endless seeded sequence."""
    rng = random.Random(f"perfbench/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def launch(ctx: Context, runs: int, seed: Optional[int], trace: bool) -> Dict[str, Any]:
    """One sweep (or, with ``seed=None``, set-up only) in a new process."""
    cwd = ctx.scratch("sweep-")
    args = ["--fig", ctx.workload, "--runs", str(runs), "--trace", str(int(trace)),
            "--out", "out.json"]
    if seed is not None:
        args += ["--seed", str(seed)]
    launched = monotonic_now()
    proc = ctx.start("sweep_child.py", args, cwd)
    ctx.wait(proc, f"sweep launcher (seed {seed})")
    out = json.loads((cwd / "out.json").read_text())
    out["setup_s"] = out["ready"] - launched
    out["seed"] = seed
    return out


def oracle(fig: str, runs: int, seed: int, cells: Set[Tuple[str, float]]) -> Dict[Tuple[str, float], float]:
    """Recompute ``cells`` of one sweep on the scalar oracle.

    Runs the figure's own runner with its ``SweepEngine`` replaced by one
    that is serial, has the vectorized kernel off and computes only the
    requested ``(label, x)`` cells, so factories and models come from the
    figure module itself.
    """
    from repro.experiments import registry
    from repro.experiments.common import SweepEngine

    runner = registry.get_experiment(fig)
    module = sys.modules[runner.__module__]

    class OracleEngine(SweepEngine):
        def __init__(self, n, threshold, *, runs, seed, jobs=1, vectorize=None):
            super().__init__(n, threshold, runs=runs, seed=seed, jobs=1, vectorize=False)

        def query_curve(self, label, xs, *args, **kwargs):
            return super().query_curve(
                label, [x for x in xs if (label, float(x)) in cells], *args, **kwargs)

        def baseline_curve(self, label, xs, *args, **kwargs):
            return super().baseline_curve(
                label, [x for x in xs if (label, float(x)) in cells], *args, **kwargs)

    saved = module.SweepEngine
    module.SweepEngine = OracleEngine
    try:
        result = runner(runs=runs, seed=seed, jobs=1)
    finally:
        module.SweepEngine = saved
    return {(s.label, float(x)): y for s in result.series for x, y in zip(s.xs, s.ys)}


def check_outputs(ctx: Context, report: Report, sweeps: List[Dict[str, Any]], runs: int) -> None:
    """Exit status, quarantines, shard errors and the scalar oracle sample."""
    for sweep in sweeps:
        degraded = sum("DEGRADED" in note for note in sweep.get("notes", ()))
        report.check(
            sweep["rc"] == 0 and sweep["error"] is None and degraded == 0 and "series" in sweep,
            f"sweep seed {sweep['seed']}: CLI exit {sweep['rc']}, engine exactness "
            f"check on, {degraded} quarantined shard(s)"
            + (f", error {sweep['error']}" if sweep["error"] else ""),
        )
        for record in sweep["shards"]:
            report.attempted += 1
            report.failed += 0 if record[5] else 1
    rng = random.Random(f"perfbench-oracle/{ctx.seed}")
    finished = [i for i, sweep in enumerate(sweeps) if "series" in sweep]
    picks: Dict[int, Set[Tuple[str, float]]] = {}
    for _ in range(ORACLE_CELLS if finished else 0):
        i = rng.choice(finished)
        series = rng.choice(sweeps[i]["series"])
        picks.setdefault(i, set()).add((series["label"], float(rng.choice(series["xs"]))))
    for i, cells in sorted(picks.items()):
        sweep = sweeps[i]
        measured = {(s["label"], float(x)): y for s in sweep["series"]
                    for x, y in zip(s["xs"], s["ys"])}
        recomputed = oracle(ctx.workload, runs, sweep["seed"], cells)
        for cell in sorted(cells):
            same = recomputed.get(cell) == measured[cell]
            report.check(same, f"scalar oracle, seed {sweep['seed']} cell {cell[0]!r} "
                               f"x={cell[1]:g}: {measured[cell]!r} vs {recomputed.get(cell)!r}")


def end_to_end(report: Report, sweeps: List[Dict[str, Any]], runs: int) -> None:
    """Throughput and set-up per sweep, reported as their median over the
    run's sweeps; shard timings pooled over all of them (a sweep alone has
    too few shards for a supported p99)."""
    walls = [s["end"] - s["start"] for s in sweeps]
    trials = [runs * sum(len(se["xs"]) for se in s.get("series", ())) for s in sweeps]
    response = [(r[1] - r[0]) * 1e3 for s in sweeps for r in s["shards"] if r[1] is not None]
    service = [(r[3] - r[2]) * 1e3 for s in sweeps for r in s["shards"] if r[2] is not None]
    m = report.metrics
    m["trials_per_s"] = stats.median(t / w for t, w in zip(trials, walls))
    m["loaded_qps"] = stats.median(len(s["shards"]) / w for s, w in zip(sweeps, walls))
    m["loaded_p50_ms"] = stats.percentile(response, 0.5)
    m["loaded_p99_ms"] = stats.percentile(response, 0.99)
    m["unloaded_p50_ms"] = stats.percentile(service, 0.5)
    m["unloaded_p99_ms"] = stats.percentile(service, 0.99)
    m["setup_s"] = stats.median(s["setup_s"] for s in sweeps)
    beyond = stats.samples_beyond(len(response), 0.99)
    report.lines += [
        f"sweeps: {len(sweeps)} x 'run --jobs {JOBS} --no-cache --runs {runs}'; "
        f"wall {sum(walls):.2f} s; "
        f"{sum(trials)} trials; {len(response)} shards",
        "trials/s per sweep: " + " ".join(f"{t / w:.0f}" for t, w in zip(trials, walls)),
        f"shard timings: {len(response)} samples, {beyond} beyond p99"
        + stats.support_note(len(response), 0.99),
        f"set-up: median of {len(sweeps)} launches (imports + worker pool start)",
    ]


def shard_path(index: Dict[int, List[list]], shard: list) -> str:
    """``kernel``, ``scalar_fallback`` or ``baseline`` for one shard span."""
    if shard[6]["baseline"]:
        return "baseline"
    kernel = any(
        c[2] == "group_testing.vectorized" and "error" not in c[6]
        for c in index.get(shard[0], ())
    )
    return "kernel" if kernel else "scalar_fallback"


#: Ledger layers of a sweep (``idle`` pool waits fall into ``other``).
SWEEP_LAYERS = ("experiments", "experiments.resilience", "group_testing.vectorized",
                "sim.fastseed", "sim.rng", "mac", "core")


def traced(report: Report, plain: List[Dict[str, Any]], runs_traced: Iterable[Dict[str, Any]]) -> None:
    """Per-layer metrics, path partition, reconciliations and the ledger.

    ``runs_traced`` is consumed once, so each traced sweep's spans can be
    dropped as soon as they are folded in.
    """
    m = report.metrics
    totals: Dict[str, float] = {}
    compute: Dict[str, float] = {}
    program: Dict[str, float] = {}
    paths: List[str] = []
    shard_spans: List[list] = []
    journal: List[list] = []
    scalar_queries = 0
    wall = 0.0
    series: List[Any] = []
    for out in runs_traced:
        series.append(out.get("series"))
        spans = out.pop("spans")
        index = stats.children(spans)
        wall += out["end"] - out["start"]
        for layer, seconds in stats.layer_self_times(spans).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        for name, value in stats.compute_layers(spans).items():
            compute[name] = compute.get(name, 0) + value
        for span in spans:
            if span[2] == "experiments" and span[3] == "shard":
                shard_spans.append(span)
                paths.append(shard_path(index, span))
            elif span[2] == "experiments.resilience" and span[3] == "journal_record":
                journal.append(span)
        scalar_queries += out["counts"].get("model.queries", 0)
        snapshot = out.get("metrics") or {"counters": {}, "timers": {}}
        for name, value in snapshot["counters"].items():
            program[name] = program.get(name, 0) + value
        timer = snapshot["timers"].get("sweep.shard_compute")
        program["sweep.shard_compute_s"] = program.get("sweep.shard_compute_s", 0.0) + (
            timer["total_seconds"] if timer else 0.0)

    busy = sum(s[5] - s[4] for s in shard_spans)
    kernel_queries = compute.pop("kernel_queries")
    m.update(compute)
    m["experiments.shards"] = len(shard_spans)
    m["experiments.worker_busy_s"] = busy
    m["experiments.worker_util"] = busy / (JOBS * wall)
    m["experiments.shard_max_s"] = max((s[5] - s[4] for s in shard_spans), default=0.0)
    counts, partition_ok = stats.partition(
        paths, ("kernel", "scalar_fallback", "baseline"), int(program.get("sweep.shards", 0)))
    for name, n in counts.items():
        m[f"experiments.path.{name}"] = n
    m["resilience.journal_records"] = len(journal)
    m["resilience.journal_write_s"] = sum(s[5] - s[4] for s in journal)
    m["resilience.requeues"] = program.get("resilience.requeues", 0)
    m["resilience.quarantined"] = program.get("resilience.quarantined_shards", 0)
    m["model.queries"] = scalar_queries
    ledger_total = (JOBS + 1) * wall
    lines, ledger_ok = stats.ledger({k: totals.get(k, 0.0) for k in SWEEP_LAYERS}, ledger_total)
    for layer, seconds in lines.items():
        m[f"self_s.{layer}"] = seconds
    plain_wall = sum(s["end"] - s["start"] for s in plain)
    m["trace.overhead_s"] = wall - plain_wall
    zero_unused(report, ("serve.", "client.", "self_s.serve."))

    report.check(partition_ok, f"path partition {counts} sums to the program's "
                               f"sweep.shards={program.get('sweep.shards', 0)}")
    report.check(counts["kernel"] == program.get("sweep.vectorized_shards", 0),
                 f"kernel shards {counts['kernel']} == program sweep.vectorized_shards="
                 f"{program.get('sweep.vectorized_shards', 0)}")
    report.check(len(journal) == program.get("resilience.journal_records", 0),
                 f"journal records {len(journal)} == program resilience.journal_records="
                 f"{program.get('resilience.journal_records', 0)}")
    report.check(scalar_queries + kernel_queries == program.get("model.queries", 0),
                 f"model queries scalar {scalar_queries} + kernel {kernel_queries} == "
                 f"program model.queries={program.get('model.queries', 0)}")
    engine_busy = program.get("sweep.shard_compute_s", 0.0)
    report.check(engine_busy <= busy <= engine_busy * (1 + BUSY_TOLERANCE),
                 f"worker busy {busy:.3f} s encloses the engine's sweep.shard_compute "
                 f"{engine_busy:.3f} s within {BUSY_TOLERANCE:.0%}")
    report.check(ledger_ok, f"ledger reconciles: layers + other == {ledger_total:.3f} s "
                            f"(jobs+1 x sweep wall), other >= -{stats.LEDGER_TOLERANCE:.0%}")
    identical = [s.get("series") for s in plain] == series
    report.check(identical, "traced sweeps reproduce the untraced series bit for bit")
    report.lines.append(f"ledger over {len(series)} traced sweep(s), total "
                        f"{ledger_total:.3f} s = (jobs {JOBS} + parent 1) x sweep wall "
                        f"{wall:.3f} s:")
    for layer, seconds in lines.items():
        report.lines.append(f"  {layer:<28} {seconds:10.4f} s  {seconds / ledger_total:7.2%}")
    report.lines.append(f"  (other includes the CLI process's pool waits, "
                        f"{totals.get('idle', 0.0):.4f} s)")
    report.lines.append(f"tracing overhead: traced wall {wall:.3f} s - untraced wall "
                        f"{plain_wall:.3f} s = {wall - plain_wall:+.3f} s")


def run(ctx: Context) -> Report:
    runs = RUNS[ctx.workload]
    report = Report()
    launch(ctx, runs, None, False)  # warms file and bytecode caches; not measured
    seeds = sweep_seeds(ctx.seed)
    sweeps: List[Dict[str, Any]] = []
    start = monotonic_now()
    while monotonic_now() - start < ctx.seconds:
        sweeps.append(launch(ctx, runs, next(seeds), False))
    if not sweeps:
        raise BenchError("no sweep ran")
    check_outputs(ctx, report, sweeps, runs)
    end_to_end(report, sweeps, runs)
    if ctx.trace:
        traced(report, sweeps, (launch(ctx, runs, s["seed"], True) for s in sweeps))
    return report
