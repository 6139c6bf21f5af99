"""Shared sweep machinery for the figure-reproduction harness.

The paper's simulation figures all have the same skeleton: sweep one
parameter (usually the positive count ``x``), run each configuration many
times (1000 in the paper), and plot the average query cost per algorithm.
:class:`SweepEngine` implements that skeleton with deterministic per-cell
seeding so every algorithm faces the *same* sequence of workload
realisations (common random numbers -- variance reduction for the
comparisons the figures make).

Because every ``(cell, run)`` derives its streams purely from
``(seed, label, x, run)`` -- :meth:`repro.sim.rng.RngRegistry.fork` is a
stateless SHA-256 derivation -- trials can be recomputed anywhere, in any
order.  The engine exploits this with an optional process-pool backend
(``jobs > 1``): runs are sharded into blocks across worker processes and
stitched back in run order, so parallel results are **bit-identical** to
serial ones.  Factories must be picklable for the parallel path (use
:func:`repro.api.algorithm_factory` and
:class:`repro.group_testing.model.ModelSpec` instead of closures);
unpicklable factories degrade to serial execution with a warning.

Every batch runs under a :class:`repro.experiments.resilience.RunContext`:
the one the CLI installs, or a journal-less one the engine builds for
the call.  The parallel path is always the supervised pool of
:func:`repro.experiments.resilience.run_supervised` (crash/hang
detection, bounded requeue, quarantine).  With a journal, completed
shards are recorded for ``--resume`` and already-journalled shards are
skipped with bit-identical stitching.  See DESIGN.md "Resilient
execution".
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
import time
import traceback
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ThresholdDecider
from repro.experiments import resilience
from repro.experiments.resilience import ShardOutcome
from repro.group_testing.model import ModelFactory
from repro.group_testing.population import Population
from repro.group_testing.vectorized import QueryBatch, dispatch_batch
from repro.obs import MetricsSnapshot, get_registry
from repro.sim.rng import RngRegistry
from repro.viz.ascii import ascii_chart, render_table

_LOG = logging.getLogger(__name__)

#: Import-time sweep instruments (inert until metrics are enabled).  The
#: timers/histograms profile the *harness* -- real elapsed time of shard
#: execution and pool plumbing -- which is exactly what the wall-clock
#: pragmas below assert; simulated results never depend on them.
_OBS = get_registry()
_S_SHARDS = _OBS.counter("sweep.shards")
_S_RUNS = _OBS.counter("sweep.runs")
_S_SERIAL_BATCHES = _OBS.counter("sweep.serial_batches")
_S_PARALLEL_BATCHES = _OBS.counter("sweep.parallel_batches")
_S_FARM_BATCHES = _OBS.counter("sweep.farm_batches")
_S_FALLBACK_SERIAL = _OBS.counter("sweep.pickle_fallback_serial")
_S_SHARD_SECONDS = _OBS.histogram(
    "sweep.shard_seconds",
    edges=(0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0),
)
_S_QUEUE_DEPTH = _OBS.histogram(
    "sweep.queue_depth", edges=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
)
_S_SHARD_TIMER = _OBS.timer("sweep.shard_compute")
_S_PICKLE_TIMER = _OBS.timer("sweep.pickle_check")
_S_DRAIN_TIMER = _OBS.timer("sweep.drain")
_S_VEC_SHARDS = _OBS.counter("sweep.vectorized_shards")
_S_VEC_FALLBACK = _OBS.counter("sweep.vectorized_fallback")

#: Process-wide default for the engine's vectorized dispatch (overridden
#: per engine via ``SweepEngine(vectorize=...)``; the CLI's
#: ``--no-vectorize`` flips it for a whole invocation).  The kernel is
#: bit-identical to the scalar path, so this is a performance switch,
#: never a results switch.
_VECTORIZE_DEFAULT = True


def set_vectorized_dispatch(enabled: bool) -> None:
    """Set the process-wide default for vectorized cell dispatch."""
    global _VECTORIZE_DEFAULT
    _VECTORIZE_DEFAULT = bool(enabled)


def vectorized_dispatch() -> bool:
    """The process-wide default for vectorized cell dispatch."""
    return _VECTORIZE_DEFAULT

#: An algorithm factory: given the true ``x`` of the sweep cell (only the
#: oracle uses it), return a fresh :class:`ThresholdDecider`.
AlgorithmFactory = Callable[[int], ThresholdDecider]

#: A MAC-baseline factory: no arguments, returns a decider whose
#: ``decide`` takes the population directly.
BaselineFactory = Callable[[], ThresholdDecider]


@dataclass(frozen=True)
class Series:
    """One plotted curve.

    Attributes:
        label: Legend label.
        xs: X grid.
        ys: Mean metric at each grid point.
        stderr: Standard error of each mean (optional).
    """

    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    stderr: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series {self.label!r}: {len(self.xs)} xs vs {len(self.ys)} ys"
            )
        if self.stderr and len(self.stderr) != len(self.xs):
            raise ValueError(f"series {self.label!r}: stderr length mismatch")

    def y_at(self, x: float) -> float:
        """The y value at grid point ``x`` (exact match required)."""
        for xv, yv in zip(self.xs, self.ys):
            if xv == x:
                return yv
        raise KeyError(f"x={x} not on the grid of series {self.label!r}")


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one figure reproduction produced.

    Attributes:
        exp_id: Figure identifier, e.g. ``"fig01"``.
        title: Human-readable title.
        parameters: The parameter choices used (including the ones the
            paper leaves implicit; see EXPERIMENTS.md).
        series: The plotted curves.
        xlabel: X-axis meaning.
        ylabel: Y-axis meaning.
        notes: Free-form observations recorded by the runner.
    """

    exp_id: str
    title: str
    parameters: Mapping[str, object]
    series: tuple[Series, ...]
    xlabel: str = "x (positive nodes)"
    ylabel: str = "queries"
    notes: tuple[str, ...] = ()

    def get_series(self, label: str) -> Series:
        """Look up a curve by label.

        Raises:
            KeyError: If absent.
        """
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(
            f"no series {label!r}; have {[s.label for s in self.series]}"
        )

    def chart(self, *, width: int = 72, height: int = 18) -> str:
        """Render the figure as an ASCII chart."""
        xs = self.series[0].xs
        return ascii_chart(
            xs,
            {s.label: s.ys for s in self.series},
            width=width,
            height=height,
            title=f"{self.exp_id}: {self.title}",
            xlabel=self.xlabel,
            ylabel=self.ylabel,
        )

    def table(self) -> str:
        """Render the figure's data as an aligned table."""
        headers = [self.xlabel] + [s.label for s in self.series]
        rows = []
        for i, x in enumerate(self.series[0].xs):
            rows.append([x] + [s.ys[i] for s in self.series])
        return render_table(headers, rows)

    def to_csv(self) -> str:
        """The figure's data as CSV text."""
        headers = [self.xlabel] + [s.label for s in self.series]
        lines = [",".join(headers)]
        for i, x in enumerate(self.series[0].xs):
            lines.append(
                ",".join([f"{x:g}"] + [f"{s.ys[i]:.6g}" for s in self.series])
            )
        return "\n".join(lines)

    def report(self) -> str:
        """Chart + table + notes, ready to print."""
        parts = [self.chart(), "", self.table()]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        parts.append(f"parameters: {params}")
        return "\n".join(parts)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` mean all CPUs.

    Explicit values above ``os.cpu_count()`` are clamped to the CPU
    count (with a logged note): oversubscribed worker processes cannot
    speed up a CPU-bound sweep, they only add scheduling and pickling
    overhead -- the direct cause of sub-1.0 "speedups" recorded on
    small hosts.

    Raises:
        ValueError: For negative values.
    """
    cpus = os.cpu_count() or 1
    if jobs is None or jobs == 0:
        return cpus
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    jobs = int(jobs)
    if jobs > cpus:
        _LOG.warning(
            "jobs=%d exceeds this host's %d CPU(s); clamping to %d "
            "(extra worker processes only add overhead)",
            jobs,
            cpus,
            cpus,
        )
        return cpus
    return jobs


def shutdown_executors() -> None:
    """Tear down all cached worker pools (test/interpreter hygiene).

    The pools live in :mod:`repro.experiments.resilience`, one per
    worker count.
    """
    resilience.shutdown_pools()


# CLI runs (and ad-hoc scripts) rarely remember to call
# shutdown_executors(); without this hook every cached pool leaks its
# worker processes past interpreter exit.
atexit.register(shutdown_executors)


@dataclass(frozen=True)
class _SweepCellTask:
    """One shard of a sweep curve: runs ``[run_lo, run_hi)`` of one cell.

    Carries everything a worker process needs to recompute its trials
    from scratch -- cell streams derive statelessly from
    ``(seed, label, x, run)``, so a shard's costs are identical no matter
    which process computes them.
    """

    seed: int
    label: str
    x: int
    n: int
    threshold: int
    run_lo: int
    run_hi: int
    baseline: bool
    factory: Callable[..., ThresholdDecider]
    model_factory: Optional[ModelFactory] = None
    check_exactness: bool = False
    #: Whether the executing process should collect metrics (mirrors the
    #: submitting process's registry state; workers sync to it).
    collect_metrics: bool = False
    #: Whether to return an isolated :class:`MetricsSnapshot` (set on the
    #: parallel path only -- worker state cannot be read any other way).
    snapshot_metrics: bool = False
    #: Whether the executing process may dispatch this shard to the
    #: vectorized kernel (ships with the task: worker processes cannot
    #: see the submitting process's engine configuration).  The scalar
    #: fallback fires automatically when the algorithm, model or fault
    #: configuration is not batch-capable (see
    #: :func:`repro.group_testing.vectorized.dispatch_batch`).
    vectorize: bool = False


def _run_sweep_cell(
    task: _SweepCellTask,
) -> Tuple[List[float], Optional[MetricsSnapshot]]:
    """Compute one shard's per-run query costs (module-level: picklable).

    This is the single trial loop behind both the serial and the parallel
    backend, which is what makes them bit-identical by construction.

    Returns:
        ``(costs, snapshot)``.  ``snapshot`` is ``None`` unless the task
        asks for metrics isolation (``snapshot_metrics``, the parallel
        path): then the worker's registry is reset before the shard and
        snapshotted after it, and the caller merges the snapshot into its
        own registry.  Metrics collection touches no RNG stream, so costs
        are identical with metrics on or off.
    """
    metrics = get_registry()
    if metrics.enabled is not task.collect_metrics:
        # Worker processes start with (or inherit) a stale flag; the
        # submitting process's state always matches by construction.
        metrics.set_enabled(task.collect_metrics)  # tcast-lint: disable=TCL010 -- worker-side registry sync: aligns the worker's enable flag with the submitted task; snapshot is merged back explicitly
    isolate = task.collect_metrics and task.snapshot_metrics
    if isolate:
        metrics.reset()  # tcast-lint: disable=TCL010 -- worker-side registry sync: isolates this cell's counters so the returned snapshot is exact; never read cross-process
    shard_start = (
        time.perf_counter() if metrics.enabled else 0.0  # tcast-lint: disable=TCL002 -- harness profiling (shard wall time), never simulated time
    )
    if task.baseline:
        root = RngRegistry(task.seed)
        costs = []
        for run in range(task.run_lo, task.run_hi):
            reg = root.fork(f"{task.label}/x{task.x}/r{run}")
            pop = Population.from_count(task.n, task.x, reg.stream("pop"))
            result = task.factory().decide(pop, task.threshold, reg.stream("mac"))
            costs.append(float(result.queries))
    else:
        assert task.model_factory is not None
        batch = QueryBatch.for_cell(
            seed=task.seed,
            label=task.label,
            x=task.x,
            n=task.n,
            threshold=task.threshold,
            run_lo=task.run_lo,
            run_hi=task.run_hi,
            model=task.model_factory,
        )
        out, path = dispatch_batch(
            task.factory(task.x), batch, vectorize=task.vectorize
        )
        # Parity jobs read which path ran from these two counters.
        if path == "kernel":
            _S_VEC_SHARDS.inc()
        elif path == "fallback":
            _S_VEC_FALLBACK.inc()
        if task.check_exactness and out.exact:
            # A from_count population's ground truth is x >= t.
            truth = task.x >= task.threshold
            bad = np.flatnonzero(out.decisions != truth)
            if bad.size:
                raise AssertionError(
                    f"{task.label}: wrong answer at x={task.x}, "
                    f"t={task.threshold}, run={task.run_lo + int(bad[0])}: "
                    f"got {bool(out.decisions[bad[0]])}, truth {truth}"
                )
        costs = [float(q) for q in out.queries]
    if metrics.enabled:
        elapsed = time.perf_counter() - shard_start  # tcast-lint: disable=TCL002 -- harness profiling (shard wall time), never simulated time
        _S_SHARD_SECONDS.observe(elapsed)
        _S_SHARD_TIMER.add_seconds(elapsed)
        _S_SHARDS.inc()
        _S_RUNS.inc(len(costs))
    return costs, (metrics.snapshot() if isolate else None)


def _run_sweep_cell_guarded(task: _SweepCellTask) -> ShardOutcome:
    """Worker-side wrapper: ship in-shard exceptions home as data.

    Letting an exception propagate out of a worker either loses the
    traceback or -- when the exception is unpicklable -- takes the whole
    pool down as a bare ``BrokenProcessPool``.  Catching here turns any
    in-shard failure into a :class:`ShardOutcome` the parent can report
    with the shard's exact coordinates and the full remote traceback.
    """
    try:
        costs, snapshot = _run_sweep_cell(task)
    except Exception as exc:
        return ShardOutcome(
            error_type=type(exc).__name__,
            remote_traceback=traceback.format_exc(),
        )
    return ShardOutcome(costs=costs, snapshot=snapshot)


class SweepEngine:
    """Deterministic multi-run sweep executor.

    Args:
        n: Population size.
        threshold: Threshold ``t`` (per-cell overridable in the t-sweep).
        runs: Repetitions per grid cell (paper: 1000).
        seed: Root seed; every (cell, run) derives its own streams.
        jobs: Worker processes (``1`` = in-process serial; ``0``/``None``
            = one per CPU).  Parallel output is bit-identical to serial;
            factories must be picklable or the engine falls back to
            serial with a warning.
        vectorize: Whether cells may dispatch to the vectorized kernel
            when the algorithm, model and fault configuration all
            support it (``None`` = the process default, normally on;
            see :func:`set_vectorized_dispatch`).  The kernel consumes
            the same per-run streams as the scalar path, so this never
            changes results -- only throughput.
    """

    #: Target task count per worker; oversubscription smooths out
    #: uneven per-shard runtimes (cheap cells finish early).
    _OVERSUBSCRIBE = 4

    def __init__(
        self,
        n: int,
        threshold: int,
        *,
        runs: int,
        seed: int,
        jobs: Optional[int] = 1,
        vectorize: Optional[bool] = None,
    ) -> None:
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        self._n = n
        self._threshold = threshold
        self._runs = runs
        self._seed = int(seed)
        self._root = RngRegistry(seed)
        self._jobs = resolve_jobs(jobs)
        self._vectorize = (
            vectorized_dispatch() if vectorize is None else bool(vectorize)
        )

    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def threshold(self) -> int:
        """Default threshold."""
        return self._threshold

    @property
    def runs(self) -> int:
        """Repetitions per cell."""
        return self._runs

    @property
    def jobs(self) -> int:
        """Resolved worker-process count (1 = serial)."""
        return self._jobs

    @property
    def vectorize(self) -> bool:
        """Whether cells may dispatch to the vectorized kernel."""
        return self._vectorize

    def _shards(self, xs: Sequence[int]) -> List[Tuple[int, int, int]]:
        """Split the sweep grid into ``(x, run_lo, run_hi)`` shards.

        Serial runs get one shard per cell.  Parallel runs split each
        cell's run range into enough blocks to keep every worker busy
        even on single-cell curves (the t- and n-sweeps call the engine
        one cell at a time).  Shard boundaries never affect results --
        only which process computes which runs.
        """
        if self._jobs <= 1:
            blocks_per_x = 1
        else:
            target = self._jobs * self._OVERSUBSCRIBE
            blocks_per_x = min(self._runs, max(1, -(-target // len(xs))))
        shards: List[Tuple[int, int, int]] = []
        for x in xs:
            base, extra = divmod(self._runs, blocks_per_x)
            lo = 0
            for i in range(blocks_per_x):
                hi = lo + base + (1 if i < extra else 0)
                if hi > lo:
                    shards.append((int(x), lo, hi))
                lo = hi
        return shards

    def _run_tasks(
        self, tasks: List[_SweepCellTask]
    ) -> List[Optional[List[float]]]:
        """Execute shards in-process, on the supervised pool or on the farm.

        Every batch runs under a
        :class:`~repro.experiments.resilience.RunContext`: the installed
        one, or a journal-less one built for this call.  Shards already
        in the run journal are skipped (their recorded costs slot in,
        bit-identical by construction).  The rest report through one
        pair of callbacks, which merge worker metrics snapshots into
        this process's registry, journal completions and mark
        quarantined shards degraded; serial, pool and farm differ only
        in the call that runs the pending shards.

        A quarantined shard yields ``None`` in the returned list and
        :meth:`_sweep` degrades explicitly.  Nobody reads the degraded
        report of an engine-built context, so there the batch raises
        once it finishes instead of returning ``nan`` cells.
        """
        installed = resilience.current_context()
        ctx = installed if installed is not None else resilience.RunContext()
        results: List[Optional[List[float]]] = [None] * len(tasks)
        pending = []
        for i, task in enumerate(tasks):
            recorded = ctx.lookup_shard(task)
            if recorded is not None:
                results[i] = recorded
            else:
                pending.append(i)
        if not pending:
            return results
        reg = get_registry()

        def on_complete(
            idx: int, task: _SweepCellTask, outcome: ShardOutcome
        ) -> None:
            assert outcome.costs is not None
            if outcome.snapshot is not None:
                reg.absorb(outcome.snapshot)
            results[idx] = outcome.costs
            ctx.record_shard(task, outcome.costs)

        def on_quarantine(
            idx: int, task: _SweepCellTask, reason: str
        ) -> None:
            label, x, lo, hi = resilience.shard_coords(task)
            _LOG.error(
                "quarantined shard %r x=%d runs [%d,%d): %s",
                label, x, lo, hi, reason,
            )
            ctx.mark_degraded(task, reason)

        # Farm backend: even a single pending shard goes through the farm
        # so the crash/resume story is uniform.
        serial = ctx.farm is None and (self._jobs <= 1 or len(pending) <= 1)
        if serial:
            _S_SERIAL_BATCHES.inc()
        elif ctx.farm is None:
            try:
                with _S_PICKLE_TIMER.time():
                    pickle.dumps(tasks[pending[0]])
            except Exception:
                warnings.warn(
                    "sweep factories are not picklable; running serially "
                    "(use repro.api.algorithm_factory / ModelSpec for the "
                    "parallel backend)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                _S_FALLBACK_SERIAL.inc()
                serial = True
        if not serial and reg.enabled:
            # Workers cannot write this registry; ask each shard for an
            # isolated snapshot to merge back (exact integer sums).
            tasks = [replace(t, snapshot_metrics=True) for t in tasks]
        items = [(i, tasks[i]) for i in pending]
        if serial:
            for idx, task in items:
                costs, _ = _run_sweep_cell(task)
                on_complete(idx, task, ShardOutcome(costs=costs))
        elif ctx.farm is not None:
            _S_FARM_BATCHES.inc()
            with _S_DRAIN_TIMER.time():
                ctx.farm.execute(
                    items,
                    fn=_run_sweep_cell_guarded,
                    on_complete=on_complete,
                    on_quarantine=on_quarantine,
                )
        else:
            _S_PARALLEL_BATCHES.inc()
            _S_QUEUE_DEPTH.observe(max(0, len(pending) - self._jobs))
            with _S_DRAIN_TIMER.time():
                resilience.run_supervised(
                    _run_sweep_cell_guarded,
                    items,
                    jobs=self._jobs,
                    context=ctx,
                    on_complete=on_complete,
                    on_quarantine=on_quarantine,
                )
        if installed is None and ctx.degraded:
            raise RuntimeError(
                f"{len(ctx.degraded)} sweep shard(s) quarantined after "
                "repeated worker failures: " + "; ".join(ctx.degraded)
            )
        return results

    def _sweep(
        self,
        label: str,
        xs: Sequence[int],
        factory: Callable[..., ThresholdDecider],
        model_factory: Optional[ModelFactory],
        threshold: Optional[int],
        *,
        baseline: bool,
        check_exactness: bool = False,
    ) -> Series:
        t = self._threshold if threshold is None else threshold
        shards = self._shards(xs)
        collect_metrics = get_registry().enabled
        tasks = [
            _SweepCellTask(
                seed=self._seed,
                label=label,
                x=x,
                n=self._n,
                threshold=t,
                run_lo=lo,
                run_hi=hi,
                baseline=baseline,
                factory=factory,
                model_factory=model_factory,
                check_exactness=check_exactness,
                collect_metrics=collect_metrics,
                vectorize=self._vectorize and not baseline,
            )
            for (x, lo, hi) in shards
        ]
        blocks = self._run_tasks(tasks)
        by_x: Dict[int, List[float]] = {int(x): [] for x in xs}
        for (x, _, _), block in zip(shards, blocks):
            if block is not None:  # None = quarantined (degraded run)
                by_x[x].extend(block)
        means: List[float] = []
        errs: List[float] = []
        for x in xs:
            costs = np.asarray(by_x[int(x)], dtype=np.float64)
            # A cell can come up short (or empty) only when supervision
            # quarantined shards; the run then carries a degraded report.
            means.append(float(costs.mean()) if costs.size else float("nan"))
            errs.append(float(costs.std(ddof=1) / np.sqrt(self._runs))
                        if self._runs > 1 and costs.size > 1 else 0.0)
        return Series(
            label=label,
            xs=tuple(float(x) for x in xs),
            ys=tuple(means),
            stderr=tuple(errs),
        )

    def query_curve(
        self,
        label: str,
        xs: Sequence[int],
        algorithm_factory: AlgorithmFactory,
        model_factory: ModelFactory,
        *,
        threshold: Optional[int] = None,
        check_exactness: bool = True,
    ) -> Series:
        """Mean query cost of a bin-querying algorithm across an x sweep.

        Args:
            label: Series label.
            xs: Positive-count grid.
            algorithm_factory: Builds the algorithm per cell (receives the
                cell's true ``x``; only the oracle uses it).
            model_factory: Builds the query model per run.
            threshold: Override of the engine default.
            check_exactness: Assert exact algorithms return the ground
                truth on every run (disabled for noisy models).

        Returns:
            The mean-cost series with standard errors.
        """
        return self._sweep(
            label,
            xs,
            algorithm_factory,
            model_factory,
            threshold,
            baseline=False,
            check_exactness=check_exactness,
        )

    def baseline_curve(
        self,
        label: str,
        xs: Sequence[int],
        baseline_factory: BaselineFactory,
        *,
        threshold: Optional[int] = None,
    ) -> Series:
        """Mean slot cost of a MAC baseline (CSMA / sequential) sweep."""
        return self._sweep(
            label, xs, baseline_factory, None, threshold, baseline=True
        )


def mean_query_curve(
    label: str,
    xs: Sequence[int],
    algorithm_factory: AlgorithmFactory,
    model_factory: ModelFactory,
    *,
    n: int,
    threshold: int,
    runs: int,
    seed: int,
    jobs: Optional[int] = 1,
) -> Series:
    """One-shot convenience wrapper around :class:`SweepEngine`."""
    engine = SweepEngine(n, threshold, runs=runs, seed=seed, jobs=jobs)
    return engine.query_curve(label, xs, algorithm_factory, model_factory)


def baseline_curve(
    label: str,
    xs: Sequence[int],
    baseline_factory: BaselineFactory,
    *,
    n: int,
    threshold: int,
    runs: int,
    seed: int,
    jobs: Optional[int] = 1,
) -> Series:
    """One-shot convenience wrapper for MAC baselines."""
    engine = SweepEngine(n, threshold, runs=runs, seed=seed, jobs=jobs)
    return engine.baseline_curve(label, xs, baseline_factory)
