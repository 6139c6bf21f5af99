"""Sweep-throughput benchmark: serial vs parallel fig01, plus cache.

Standalone script (not collected by pytest) that exercises the three
throughput features of the sweep engine and emits a machine-readable
summary:

1. **Parity** -- runs fig01 at a reduced trial count with ``jobs=1`` and
   ``jobs=N`` and asserts the resulting :class:`ExperimentResult` series
   (and their CSV rendering) are byte-identical.  Parallelism must never
   change the numbers.
2. **Throughput** -- times the full fig01 sweep (default 1000 trials per
   grid point, the paper's count) serial and parallel and reports
   wall-clock, trials/sec and the speedup factor.
3. **Cache** -- times a cold ``run_experiment`` against a fresh
   :class:`ResultCache` directory, then a warm one, and reports the hit
   rate and warm/cold ratio.
4. **Metrics** -- runs fig01 with the observability registry disabled
   and enabled, checks the CSVs are byte-identical, and reports the
   enabled overhead.  A third, serial metrics-off run counts every call
   it makes to an instrument entry point (``Counter.inc``,
   ``Histogram.observe``, ``Timer.time``, ``Timer.add_seconds``,
   ``MetricsRegistry.absorb``); the bench prices each kind at its own
   measured disabled cost and **fails** if that total exceeds 2% of the
   same run's wall time -- the "near-zero disabled cost" contract of
   :mod:`repro.obs`.
5. **Supervision** -- runs fig01 under an active
   :class:`~repro.experiments.resilience.RunContext` with a journal (the
   crash-safe CLI path) and without one (the engine's journal-less
   context: the same supervised pool, nothing journalled), checks the
   CSVs are byte-identical, and **fails** if the measured journal-write
   cost (the ``resilience.journal_write`` timer: CRC framing, flush,
   fsync) exceeds 2% of the journalled run's wall time on this
   fault-free path.
6. **Farm** -- runs fig01 through a real
   :class:`~repro.farm.FarmCoordinator` with subprocess workers (the
   ``--backend farm`` path: spool, leases, content-addressed store),
   checks the CSV is byte-identical to the serial run, checks the lease
   accounting balances, and **fails** if the farm's wall time exceeds
   :data:`FARM_OVERHEAD_FACTOR` times the serial run on a multi-core
   host -- the spool/lease machinery must never dominate the compute.
7. **Vectorized** -- times the two fig01 tcast query curves through
   ``SweepEngine(vectorize=False)`` and ``vectorize=True``, interleaved
   and compared best-of-N so both legs face the same noise environment,
   asserts the series are identical and the ``model.*`` counters agree,
   and **fails** (full mode) if the vectorized kernel's speedup drops
   below :data:`VECTORIZED_SPEEDUP_FLOOR` or its absolute throughput
   below :data:`VECTORIZED_TRIALS_PER_SECOND_FLOOR` trials/sec.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweeps.py [--runs 1000]
        [--jobs 0] [--out BENCH_sweeps.json] [--quick]

The JSON lands at the repo root as ``BENCH_sweeps.json`` by default so
CI can upload it as an artifact.  ``cpu_count`` is recorded alongside
the timings: on a single-core box ``resolve_jobs`` clamps every request
to one worker, so the serial-vs-parallel timing comparison is flagged as
skipped rather than reported as a (meaningless) speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time
from datetime import datetime, timezone

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import algorithm_factory  # noqa: E402
from repro.experiments import resilience  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    SweepEngine,
    resolve_jobs,
    shutdown_executors,
)
from repro.experiments.fig01_one_plus import run as run_fig01  # noqa: E402
from repro.experiments.registry import run_experiment  # noqa: E402
from repro.group_testing.model import ModelSpec  # noqa: E402
from repro.obs import MetricsSnapshot, get_registry  # noqa: E402
from repro.obs.registry import (  # noqa: E402
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.workloads.scenarios import x_sweep  # noqa: E402

#: Hard budget for the measured cost of *disabled* instruments, as a
#: fraction of a metrics-off fig01 run.  CI fails the bench above this.
DISABLED_OVERHEAD_BUDGET = 0.02

#: Every instrument entry point a metrics-off run can still call, as
#: ``name -> (class, attribute)``: the census wraps each one.
INSTRUMENT_ENTRY_POINTS = {
    "Counter.inc": (Counter, "inc"),
    "Histogram.observe": (Histogram, "observe"),
    "Timer.time": (Timer, "time"),
    "Timer.add_seconds": (Timer, "add_seconds"),
    "MetricsRegistry.absorb": (MetricsRegistry, "absorb"),
}

#: Hard budget for the measured journal/supervision cost on a
#: fault-free supervised run, as a fraction of its wall time.
SUPERVISION_OVERHEAD_BUDGET = 0.02

#: Hard ceiling on farm wall time as a multiple of the serial run at the
#: same trial count.  The farm pays for worker spawn, descriptor
#: pickling, lease polling, and store round-trips; at bench scale that
#: overhead is real but must stay within a small constant factor.
FARM_OVERHEAD_FACTOR = 3.0

#: Hard floor on the vectorized kernel's speedup over the scalar
#: interpreter on the fig01 query curves (best-of-N interleaved legs).
VECTORIZED_SPEEDUP_FLOOR = 10.0

#: Ratchet on the vectorized leg's absolute throughput on the same
#: workload, in trials/second.  Deliberately conservative (~1/4 of the
#: development machine) so it catches order-of-magnitude regressions,
#: not host-to-host variance.
VECTORIZED_TRIALS_PER_SECOND_FLOOR = 6000.0

#: fig01's grid has 31 x-points and four curves; every (x, run) pair of
#: every curve is one trial (one full threshold-query session).
FIG01_CURVES = 4
FIG01_GRID = 31


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def check_parity(runs: int, jobs: int) -> dict:
    """fig01 serial vs parallel must agree bit for bit."""
    serial, serial_s = _time(lambda: run_fig01(runs=runs, jobs=1))
    parallel, parallel_s = _time(lambda: run_fig01(runs=runs, jobs=jobs))
    series_equal = serial.series == parallel.series
    csv_equal = serial.to_csv() == parallel.to_csv()
    if not (series_equal and csv_equal):
        raise AssertionError(
            f"fig01 parallel (jobs={jobs}) diverged from serial: "
            f"series_equal={series_equal} csv_equal={csv_equal}"
        )
    return {
        "runs": runs,
        "jobs": jobs,
        "series_identical": series_equal,
        "csv_identical": csv_equal,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
    }


def bench_throughput(runs: int, jobs: int) -> dict:
    """Time the full fig01 sweep serial and parallel."""
    trials = FIG01_CURVES * FIG01_GRID * runs
    _, serial_s = _time(lambda: run_fig01(runs=runs, jobs=1))
    _, parallel_s = _time(lambda: run_fig01(runs=runs, jobs=jobs))
    return {
        "experiment": "fig01",
        "runs": runs,
        "jobs": jobs,
        "trials": trials,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "trials_per_second_serial": round(trials / serial_s, 1),
        "trials_per_second_parallel": round(trials / parallel_s, 1),
        "speedup": round(serial_s / parallel_s, 2),
    }


def bench_cache(runs: int) -> dict:
    """Cold vs warm run_experiment through the on-disk result cache."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(pathlib.Path(tmp))
        (cold_result, cold_hit), cold_s = _time(
            lambda: run_experiment("fig01", cache=cache, runs=runs)
        )
        (warm_result, warm_hit), warm_s = _time(
            lambda: run_experiment("fig01", cache=cache, runs=runs)
        )
        if cold_hit or not warm_hit:
            raise AssertionError(
                f"cache misbehaved: cold hit={cold_hit} warm hit={warm_hit}"
            )
        if cold_result.series != warm_result.series:
            raise AssertionError("cached result differs from computed result")
        return {
            "runs": runs,
            "cold_seconds": round(cold_s, 3),
            "warm_seconds": round(warm_s, 3),
            "warm_over_cold": round(warm_s / cold_s, 4),
            "hit_rate": cache.hit_rate,
            "hits": cache.hits,
            "misses": cache.misses,
        }


def _instrument_census(fn):
    """Run ``fn`` with every instrument entry point counting its calls.

    Returns ``(result, seconds, calls)`` with ``calls`` keyed like
    :data:`INSTRUMENT_ENTRY_POINTS`.  Only this process's calls are
    seen, so run ``fn`` serially for a complete census.
    """
    calls = dict.fromkeys(INSTRUMENT_ENTRY_POINTS, 0)
    originals = {
        name: getattr(cls, attr)
        for name, (cls, attr) in INSTRUMENT_ENTRY_POINTS.items()
    }

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, (cls, attr) in INSTRUMENT_ENTRY_POINTS.items():
        setattr(cls, attr, counting(name, originals[name]))
    try:
        result, seconds = _time(fn)
    finally:
        for name, (cls, attr) in INSTRUMENT_ENTRY_POINTS.items():
            setattr(cls, attr, originals[name])
    return result, seconds, calls


def _disabled_call_costs(registry, calls: int = 200_000) -> dict:
    """Measured seconds per call of each entry point, registry disabled.

    Every probe but ``Counter.inc`` pays one extra Python call (its
    lambda or ``with`` wrapper), so the costs err high, never low.
    """
    counter = registry.counter("bench.disabled_probe")
    histogram = registry.histogram("bench.disabled_probe_hist", edges=(1.0,))
    timer = registry.timer("bench.disabled_probe_timer")
    snapshot = MetricsSnapshot(counters={"bench.disabled_probe": 0})

    def span():
        with timer.time():
            pass

    probes = {
        "Counter.inc": counter.inc,
        "Histogram.observe": lambda: histogram.observe(0.5),
        "Timer.time": span,
        "Timer.add_seconds": lambda: timer.add_seconds(0.0),
        "MetricsRegistry.absorb": lambda: registry.absorb(snapshot),
    }
    costs = {}
    for name, probe in probes.items():
        t0 = time.perf_counter()
        for _ in range(calls):
            probe()
        costs[name] = (time.perf_counter() - t0) / calls
    return costs


def bench_metrics(runs: int, jobs: int) -> dict:
    """Metrics-off vs metrics-on fig01: identical bytes, bounded cost.

    Enforces the :mod:`repro.obs` contract two ways: the enabled run's
    CSV must match the disabled run's byte for byte, and the *disabled*
    path must stay effectively free.  The disabled cost is measured, not
    estimated: a serial metrics-off run counts its calls to each
    instrument entry point (:func:`_instrument_census`; serial, so no
    call hides in a worker process), each kind is priced at its own
    measured disabled cost, and the sum is expressed as a fraction of
    that same run's wall time; above :data:`DISABLED_OVERHEAD_BUDGET`
    the bench raises.
    """
    registry = get_registry()
    registry.disable()
    registry.reset()
    disabled_result, disabled_s = _time(lambda: run_fig01(runs=runs, jobs=jobs))
    registry.reset()
    registry.enable()
    enabled_result, enabled_s = _time(lambda: run_fig01(runs=runs, jobs=jobs))
    snapshot = registry.snapshot()
    registry.disable()
    registry.reset()

    if disabled_result.to_csv() != enabled_result.to_csv():
        raise AssertionError("enabling metrics changed the fig01 CSV")

    census_result, census_s, calls = _instrument_census(
        lambda: run_fig01(runs=runs, jobs=1)
    )
    registry.reset()
    if census_result.to_csv() != disabled_result.to_csv():
        raise AssertionError("the census run changed the fig01 CSV")
    costs = _disabled_call_costs(registry)
    registry.reset()
    disabled_seconds = sum(calls[name] * costs[name] for name in calls)
    disabled_overhead = disabled_seconds / census_s if census_s > 0 else 0.0
    if disabled_overhead > DISABLED_OVERHEAD_BUDGET:
        raise AssertionError(
            f"disabled-path metrics overhead {disabled_overhead:.2%} exceeds "
            f"the {DISABLED_OVERHEAD_BUDGET:.0%} budget "
            f"({sum(calls.values())} instrument calls)"
        )
    return {
        "runs": runs,
        "jobs": jobs,
        "csv_identical": True,
        "disabled_seconds": round(disabled_s, 3),
        "enabled_seconds": round(enabled_s, 3),
        "enabled_overhead_fraction": round(
            (enabled_s - disabled_s) / disabled_s if disabled_s > 0 else 0.0, 4
        ),
        "census_seconds": round(census_s, 3),
        "disabled_calls": calls,
        "disabled_ns_per_call": {
            name: round(cost * 1e9, 2) for name, cost in costs.items()
        },
        "disabled_overhead_fraction": round(disabled_overhead, 6),
        "disabled_overhead_budget": DISABLED_OVERHEAD_BUDGET,
        "counters": dict(sorted(snapshot.counters.items())),
    }


def bench_supervision(runs: int, jobs: int) -> dict:
    """Fault-free journalled run vs journal-less run: identical bytes,
    bounded cost.

    Both legs run on the supervised pool; the ``plain`` leg installs no
    context, so the engine builds a journal-less one.  The journalled
    leg adds CRC framing + flush + fsync per shard.  The gate is
    measured, not A/B-timed (wall-clock deltas at this scale are noise):
    the ``resilience.journal_write`` timer records exactly the seconds
    the journalled run spent on durable journal appends, and that total
    must stay under :data:`SUPERVISION_OVERHEAD_BUDGET` of its wall time.
    """
    plain_result, plain_s = _time(lambda: run_fig01(runs=runs, jobs=jobs))
    registry = get_registry()
    registry.reset()
    registry.enable()
    with tempfile.TemporaryDirectory() as tmp:
        journal = resilience.ShardJournal(
            pathlib.Path(tmp) / "bench.journal",
            exp_id="fig01",
            key="bench-supervision",
        )
        ctx = resilience.RunContext(journal=journal)
        with resilience.activate(ctx):
            supervised_result, supervised_s = _time(
                lambda: run_fig01(runs=runs, jobs=jobs)
            )
    snapshot = registry.snapshot()
    registry.disable()
    registry.reset()

    if supervised_result.to_csv() != plain_result.to_csv():
        raise AssertionError("supervised execution changed the fig01 CSV")
    if ctx.degraded:
        raise AssertionError(f"fault-free run degraded: {ctx.degraded}")

    journal_timer = snapshot.timers.get("resilience.journal_write")
    journal_seconds = journal_timer.total_seconds if journal_timer else 0.0
    records = snapshot.counters.get("resilience.journal_records", 0)
    overhead = journal_seconds / supervised_s if supervised_s > 0 else 0.0
    if overhead > SUPERVISION_OVERHEAD_BUDGET:
        raise AssertionError(
            f"supervision/journal overhead {overhead:.2%} exceeds the "
            f"{SUPERVISION_OVERHEAD_BUDGET:.0%} budget "
            f"({journal_seconds:.3f}s over {records} records)"
        )
    return {
        "runs": runs,
        "jobs": jobs,
        "csv_identical": True,
        "plain_seconds": round(plain_s, 3),
        "supervised_seconds": round(supervised_s, 3),
        "journal_records": records,
        "journal_seconds": round(journal_seconds, 4),
        "journal_us_per_record": round(
            journal_seconds / records * 1e6, 1
        ) if records else 0.0,
        "supervision_overhead_fraction": round(overhead, 6),
        "supervision_overhead_budget": SUPERVISION_OVERHEAD_BUDGET,
        "resilience_counters": {
            k: v
            for k, v in sorted(snapshot.counters.items())
            if k.startswith("resilience.")
        },
    }


def bench_farm(runs: int, jobs: int, enforce_gate: bool) -> dict:
    """Serial backend vs farm backend: identical bytes, bounded overhead.

    Spins up a real :class:`~repro.farm.FarmCoordinator` (subprocess
    workers, spool on disk, content-addressed store -- exactly the
    ``--backend farm`` CLI path) and routes fig01 through it.  Three
    gates: the CSV must match the serial run byte for byte, the lease
    accounting must balance (granted = completed + expired +
    quarantined; fault-free, each shard is granted exactly once and
    none expires), and on a multi-core host the farm's wall time must
    stay under :data:`FARM_OVERHEAD_FACTOR` times the serial run's.
    """
    from repro.farm import FarmCoordinator, FarmPolicy

    plain_result, plain_s = _time(lambda: run_fig01(runs=runs, jobs=1))
    registry = get_registry()
    registry.reset()
    registry.enable()
    with tempfile.TemporaryDirectory() as tmp:
        journal = resilience.ShardJournal(
            pathlib.Path(tmp) / "bench.journal",
            exp_id="fig01",
            key="bench-farm",
        )
        # Tight polling: the bench measures the protocol's work (spool,
        # leases, store round-trips), not the default sleep granularity,
        # which would dominate at bench-sized shards.
        farm = FarmCoordinator(
            pathlib.Path(tmp) / "spool",
            exp_id="fig01",
            run_key="bench-farm",
            workers=jobs,
            policy=FarmPolicy(poll_interval=0.01, heartbeat_interval=0.1),
            supervision=resilience.SupervisionPolicy(),
        )
        ctx = resilience.RunContext(journal=journal, farm=farm)
        with farm, resilience.activate(ctx):
            farm_result, farm_s = _time(
                lambda: run_fig01(runs=runs, jobs=jobs)
            )
    snapshot = registry.snapshot()
    registry.disable()
    registry.reset()

    if farm_result.to_csv() != plain_result.to_csv():
        raise AssertionError("farm execution changed the fig01 CSV")
    if ctx.degraded:
        raise AssertionError(f"fault-free farm run degraded: {ctx.degraded}")
    granted = snapshot.counters.get("farm.leases_granted", 0)
    resolved = (
        snapshot.counters.get("farm.leases_completed", 0)
        + snapshot.counters.get("farm.leases_expired", 0)
        + snapshot.counters.get("farm.leases_quarantined", 0)
    )
    if granted == 0 or granted != resolved:
        raise AssertionError(
            f"farm lease accounting off: granted={granted} resolved={resolved}"
        )
    # Fault-free, every shard is leased exactly once.
    shards = snapshot.counters.get("sweep.shards", 0)
    expired = snapshot.counters.get("farm.leases_expired", 0)
    if granted != shards or expired:
        raise AssertionError(
            f"fault-free farm run re-leased: granted={granted} for "
            f"{shards} shards, expired={expired}"
        )
    overhead_factor = farm_s / plain_s if plain_s > 0 else 0.0
    if enforce_gate and overhead_factor > FARM_OVERHEAD_FACTOR:
        raise AssertionError(
            f"farm overhead factor {overhead_factor:.2f}x exceeds the "
            f"{FARM_OVERHEAD_FACTOR:.1f}x budget "
            f"({farm_s:.1f}s vs {plain_s:.1f}s serial)"
        )
    return {
        "runs": runs,
        "workers": jobs,
        "csv_identical": True,
        "serial_seconds": round(plain_s, 3),
        "farm_seconds": round(farm_s, 3),
        "overhead_factor": round(overhead_factor, 3),
        "overhead_budget_factor": FARM_OVERHEAD_FACTOR,
        "gate_enforced": enforce_gate,
        "farm_counters": {
            k: v
            for k, v in sorted(snapshot.counters.items())
            if k.startswith("farm.")
        },
    }


def bench_vectorized(runs: int, *, reps: int, enforce_gate: bool) -> dict:
    """Scalar vs vectorized query curves: identical numbers, >=10x faster.

    Runs the two fig01 tcast query curves (2tBins and Exponential
    Increase; the floor is defined on these two, so the MAC baselines'
    batch path is timed by the throughput leg, not here) through
    ``SweepEngine`` with ``vectorize=False`` and ``vectorize=True``.
    The legs are interleaved ``reps`` times and compared best-of-reps
    so both face the same noise environment -- a single back-to-back
    pair can easily swing 30% on a loaded host.

    Three checks: the two legs' series must be identical, a
    metrics-enabled pass of each leg must produce the same ``model.*``
    counters (the kernel replays every query into the same instruments
    the scalar model uses), and -- when ``enforce_gate`` -- the
    vectorized leg must clear :data:`VECTORIZED_SPEEDUP_FLOOR` and
    :data:`VECTORIZED_TRIALS_PER_SECOND_FLOOR`.
    """
    n, threshold, seed = 128, 16, 2011
    xs = x_sweep(n)
    one_plus = ModelSpec(kind="1+", max_queries=50 * n)
    curves = (("2tBins", "2tbins"), ("ExpIncrease", "exponential"))
    trials = len(curves) * len(xs) * runs

    def leg(leg_runs: int, vectorize: bool):
        engine = SweepEngine(
            n, threshold, runs=leg_runs, seed=seed, jobs=1,
            vectorize=vectorize,
        )
        return tuple(
            engine.query_curve(label, xs, algorithm_factory(name), one_plus)
            for label, name in curves
        )

    scalar_times, vector_times = [], []
    scalar_series = vector_series = None
    for _ in range(reps):
        scalar_series, t = _time(lambda: leg(runs, False))
        scalar_times.append(t)
        vector_series, t = _time(lambda: leg(runs, True))
        vector_times.append(t)
    if scalar_series != vector_series:
        raise AssertionError(
            "vectorized kernel diverged from the scalar path"
        )

    # Counter parity at a reduced trial count: every query the kernel
    # executes must land on the same model.* instruments.
    def model_counters(vectorize: bool) -> dict:
        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            leg(min(runs, 60), vectorize)
            snapshot = registry.snapshot()
        finally:
            registry.disable()
            registry.reset()
        return {
            k: v
            for k, v in sorted(snapshot.counters.items())
            if k.startswith("model.")
        }

    scalar_counters = model_counters(False)
    vector_counters = model_counters(True)
    if scalar_counters != vector_counters:
        raise AssertionError(
            "vectorized kernel changed the model.* counters: "
            f"scalar={scalar_counters} vectorized={vector_counters}"
        )

    scalar_s, vector_s = min(scalar_times), min(vector_times)
    speedup = scalar_s / vector_s if vector_s > 0 else 0.0
    trials_per_second = trials / vector_s if vector_s > 0 else 0.0
    if enforce_gate:
        if speedup < VECTORIZED_SPEEDUP_FLOOR:
            raise AssertionError(
                f"vectorized speedup {speedup:.2f}x is below the "
                f"{VECTORIZED_SPEEDUP_FLOOR:.0f}x floor "
                f"({vector_s:.2f}s vs {scalar_s:.2f}s scalar, "
                f"best of {reps})"
            )
        if trials_per_second < VECTORIZED_TRIALS_PER_SECOND_FLOOR:
            raise AssertionError(
                f"vectorized throughput {trials_per_second:.0f} trials/s "
                f"is below the {VECTORIZED_TRIALS_PER_SECOND_FLOOR:.0f} "
                "floor"
            )
    return {
        "runs": runs,
        "reps": reps,
        "trials": trials,
        "series_identical": True,
        "model_counters_identical": True,
        "scalar_seconds": round(scalar_s, 3),
        "vectorized_seconds": round(vector_s, 3),
        "speedup": round(speedup, 2),
        "speedup_floor": VECTORIZED_SPEEDUP_FLOOR,
        "trials_per_second": round(trials_per_second, 1),
        "trials_per_second_floor": VECTORIZED_TRIALS_PER_SECOND_FLOOR,
        "gate_enforced": enforce_gate,
        "model_counters": vector_counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--runs", type=int, default=1000,
        help="trials per grid point for the throughput sweep (paper: 1000)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for the parallel legs (0 = all CPUs)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=REPO_ROOT / "BENCH_sweeps.json",
        help="where to write the JSON summary",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink every leg (CI smoke / local sanity)",
    )
    args = parser.parse_args(argv)

    # resolve_jobs clamps to the CPU budget, so on a single-core box
    # every "parallel" leg degenerates to the serial path; run it anyway
    # as a smoke test but flag the timing comparison as meaningless.
    single_core = (os.cpu_count() or 1) < 2
    jobs = 1 if single_core else max(2, resolve_jobs(args.jobs if args.jobs else None))
    parity_runs = 20 if args.quick else 60
    sweep_runs = 60 if args.quick else args.runs
    cache_runs = 20 if args.quick else 60

    print(f"[bench_sweeps] cpu_count={os.cpu_count()} jobs={jobs}")

    print(f"[bench_sweeps] parity: fig01 runs={parity_runs} ...")
    parity = check_parity(parity_runs, jobs)
    parity["timing_comparison"] = (
        "skipped: single-core host" if single_core else "serial vs parallel"
    )
    print(f"[bench_sweeps]   serial=={jobs}-way parallel: OK")

    print(f"[bench_sweeps] throughput: fig01 runs={sweep_runs} ...")
    throughput = bench_throughput(sweep_runs, jobs)
    if single_core:
        throughput["speedup"] = None
        throughput["note"] = "single-core host: no parallel speedup expected"
        print(
            f"[bench_sweeps]   serial {throughput['serial_seconds']}s "
            "(single-core host: speedup comparison skipped)"
        )
    else:
        print(
            f"[bench_sweeps]   serial {throughput['serial_seconds']}s, "
            f"parallel {throughput['parallel_seconds']}s "
            f"(speedup {throughput['speedup']}x, "
            f"{throughput['trials_per_second_parallel']} trials/s)"
        )

    print(f"[bench_sweeps] cache: fig01 runs={cache_runs} ...")
    cache = bench_cache(cache_runs)
    print(
        f"[bench_sweeps]   cold {cache['cold_seconds']}s, "
        f"warm {cache['warm_seconds']}s, hit rate {cache['hit_rate']:.2f}"
    )

    print(f"[bench_sweeps] metrics: fig01 runs={cache_runs} off/on ...")
    metrics = bench_metrics(cache_runs, jobs)
    print(
        f"[bench_sweeps]   enabled overhead "
        f"{metrics['enabled_overhead_fraction']:+.1%}, disabled "
        f"{sum(metrics['disabled_calls'].values())} instrument calls "
        f"({metrics['disabled_overhead_fraction']:.3%} of run, "
        f"budget {metrics['disabled_overhead_budget']:.0%})"
    )

    supervision_runs = 40 if args.quick else 60
    print(
        f"[bench_sweeps] supervision: fig01 runs={supervision_runs} "
        "plain vs journalled ..."
    )
    supervision = bench_supervision(supervision_runs, jobs)
    print(
        f"[bench_sweeps]   journal {supervision['journal_records']} records "
        f"in {supervision['journal_seconds']}s "
        f"({supervision['supervision_overhead_fraction']:.3%} of run, "
        f"budget {supervision['supervision_overhead_budget']:.0%})"
    )

    farm_runs = 20 if args.quick else 60
    print(
        f"[bench_sweeps] farm: fig01 runs={farm_runs} serial vs "
        f"{jobs}-worker farm ..."
    )
    farm = bench_farm(farm_runs, jobs, enforce_gate=not single_core)
    gate_note = (
        f"budget {farm['overhead_budget_factor']:.1f}x"
        if farm["gate_enforced"]
        else "gate skipped: single-core host"
    )
    print(
        f"[bench_sweeps]   serial {farm['serial_seconds']}s, farm "
        f"{farm['farm_seconds']}s ({farm['overhead_factor']}x, {gate_note})"
    )

    # The speedup floor only holds once per-cell setup is amortised, so
    # quick mode reports the ratio without enforcing it.
    vector_runs = 60 if args.quick else args.runs
    vector_reps = 1 if args.quick else 3
    print(
        f"[bench_sweeps] vectorized: query curves runs={vector_runs} "
        f"scalar vs kernel, best of {vector_reps} ..."
    )
    vectorized = bench_vectorized(
        vector_runs, reps=vector_reps, enforce_gate=not args.quick
    )
    vec_gate_note = (
        f"floor {vectorized['speedup_floor']:.0f}x"
        if vectorized["gate_enforced"]
        else "gate skipped: quick mode"
    )
    print(
        f"[bench_sweeps]   scalar {vectorized['scalar_seconds']}s, "
        f"vectorized {vectorized['vectorized_seconds']}s "
        f"({vectorized['speedup']}x, "
        f"{vectorized['trials_per_second']} trials/s, {vec_gate_note})"
    )

    payload = {
        "benchmark": "sweeps",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "single_core": single_core,
        "quick": args.quick,
        "parity": parity,
        "throughput": throughput,
        "cache": cache,
        "metrics": metrics,
        "supervision": supervision,
        "farm": farm,
        "vectorized": vectorized,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench_sweeps] wrote {args.out}")
    shutdown_executors()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
