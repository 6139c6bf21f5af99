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
(``jobs > 1``): each whole cell is one shard, computed in whichever
worker process picks it up, so parallel results are **bit-identical**
to serial ones.  Factories must be picklable for the parallel path (use
:func:`repro.api.algorithm_factory` and
:class:`repro.group_testing.model.ModelSpec` instead of closures);
unpicklable factories degrade to serial execution with a warning.

Every Monte-Carlo figure's cells run through one runner,
:func:`run_shards`: the engine's curves, fig09/fig10's ``(d, r)`` cells
and the packet-level runners' cells (any :class:`ShardTask`; the last
two kinds go through :func:`run_cells`).  Every batch runs under a
:class:`repro.experiments.resilience.RunContext`: the one the CLI
installs, or a journal-less one built for the call.  The parallel path
is always the supervised pool of
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
from typing import Callable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.base import ThresholdDecider
from repro.experiments import resilience
from repro.experiments.resilience import ShardRecord, shard_id
from repro.group_testing.model import ModelFactory
from repro.group_testing.vectorized import QueryBatch, dispatch_batch
from repro.obs import get_registry
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
_S_BASE_VEC_SHARDS = _OBS.counter("sweep.baseline_vectorized_shards")
_S_BASE_FALLBACK = _OBS.counter("sweep.baseline_fallback")

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
#: ``decide`` takes the population directly (and whose ``decide_batch``
#: takes a batch with no model).
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
class ShardTask:
    """One shard: a whole grid cell, named by what its values derive from.

    The identity fields are what
    :func:`repro.experiments.resilience.shard_id` keys the run journal
    and the farm store by; ``[run_lo, run_hi)`` indexes the cell's
    values: an engine cell's whole run range, or ``[0, k)`` for a cell
    that returns ``k`` aggregates (:func:`run_cells`).  Subclasses add
    :meth:`costs` and everything a worker process needs to compute it
    from scratch.
    """

    seed: int
    label: str
    x: int
    n: int
    threshold: int
    run_lo: int
    run_hi: int
    #: Whether the executing process should collect metrics (set by
    #: :func:`run_shards` from the submitting process's registry;
    #: workers sync to it).
    collect_metrics: bool = False
    #: Whether to return an isolated :class:`MetricsSnapshot` (set off
    #: the serial path only -- worker state cannot be read any other way).
    snapshot_metrics: bool = False

    def costs(self) -> List[float]:
        """The cell's values, one per index in ``[run_lo, run_hi)``."""
        raise NotImplementedError


@dataclass(frozen=True, kw_only=True)
class _SweepCellTask(ShardTask):
    """One :class:`SweepEngine` cell: every run of one ``(label, x)``.

    Cell streams derive statelessly from ``(seed, label, x, run)``, so a
    cell's costs are identical no matter which process computes them.
    """

    baseline: bool
    factory: Callable[..., ThresholdDecider]
    model_factory: Optional[ModelFactory] = None
    check_exactness: bool = False
    #: Whether the executing process may dispatch this cell to the
    #: vectorized kernel (ships with the task: worker processes cannot
    #: see the submitting process's engine configuration).  The scalar
    #: fallback fires automatically when the algorithm, baseline, model
    #: or fault configuration is not batch-capable (see
    #: :func:`repro.group_testing.vectorized.dispatch_batch`).
    vectorize: bool = False

    def costs(self) -> List[float]:
        """Per-run query (or slot) costs of the cell, in run order."""
        # A baseline cell has no model factory: its batch carries the
        # "pop"/"mac" stream layout and its decider reads the population.
        batch = QueryBatch.for_cell(
            seed=self.seed,
            label=self.label,
            x=self.x,
            n=self.n,
            threshold=self.threshold,
            run_lo=self.run_lo,
            run_hi=self.run_hi,
            model=self.model_factory,
        )
        decider = self.factory() if self.baseline else self.factory(self.x)
        out, path = dispatch_batch(decider, batch, vectorize=self.vectorize)
        # Parity jobs read which path ran from these counters; baseline
        # cells keep their own pair so sweep.vectorized_* count query
        # curves only.
        if path == "kernel":
            (_S_BASE_VEC_SHARDS if self.baseline else _S_VEC_SHARDS).inc()
        elif path == "fallback":
            (_S_BASE_FALLBACK if self.baseline else _S_VEC_FALLBACK).inc()
        if self.check_exactness and out.exact:
            # A from_count population's ground truth is x >= t.
            truth = self.x >= self.threshold
            bad = np.flatnonzero(out.decisions != truth)
            if bad.size:
                raise AssertionError(
                    f"{self.label}: wrong answer at x={self.x}, "
                    f"t={self.threshold}, run={self.run_lo + int(bad[0])}: "
                    f"got {bool(out.decisions[bad[0]])}, truth {truth}"
                )
        return [float(q) for q in out.queries]


def _run_sweep_cell(task: ShardTask) -> ShardRecord:
    """Compute one shard's values (module-level: picklable).

    This is the single envelope behind the serial, pool and farm
    backends, which is what makes them bit-identical by construction.

    Returns:
        The shard's record: its costs, and a metrics snapshot if the
        task asks for metrics isolation (``snapshot_metrics``, off the
        serial path): then the worker's registry is reset before the
        shard and snapshotted after it, and the caller merges the
        snapshot into its own registry.  Metrics collection touches no
        RNG stream, so costs are identical with metrics on or off.
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
    costs = task.costs()
    if metrics.enabled:
        elapsed = time.perf_counter() - shard_start  # tcast-lint: disable=TCL002 -- harness profiling (shard wall time), never simulated time
        _S_SHARD_SECONDS.observe(elapsed)
        _S_SHARD_TIMER.add_seconds(elapsed)
        _S_SHARDS.inc()
        _S_RUNS.inc(len(costs))
    return ShardRecord(
        shard_id(task),
        costs=costs,
        snapshot=metrics.snapshot() if isolate else None,
    )


def _run_sweep_cell_guarded(task: ShardTask) -> ShardRecord:
    """Worker-side wrapper: ship in-shard exceptions home as data.

    Letting an exception propagate out of a worker either loses the
    traceback or -- when the exception is unpicklable -- takes the whole
    pool down as a bare ``BrokenProcessPool``.  Catching here turns any
    in-shard failure into an error :class:`ShardRecord` the parent can
    report with the shard's exact coordinates and the full remote
    traceback.
    """
    try:
        return _run_sweep_cell(task)
    except Exception as exc:
        return ShardRecord(
            shard_id(task),
            error_type=type(exc).__name__,
            remote_traceback=traceback.format_exc(),
        )


def run_shards(
    tasks: Sequence[ShardTask], *, jobs: int
) -> List[Optional[List[float]]]:
    """Execute shards in-process, on the supervised pool or on the farm.

    Every figure's cells run here, one shard per cell.  Every batch runs
    under a :class:`~repro.experiments.resilience.RunContext`: the
    installed one, or a journal-less one built for this call.  Shards
    already in the run journal are skipped (their recorded values slot
    in, bit-identical by construction).  The rest report through one
    pair of callbacks, which merge worker metrics snapshots into this
    process's registry, journal completions and mark quarantined shards
    degraded; serial, pool and farm differ only in the call that runs
    the pending shards.

    Args:
        tasks: The shards, in the order their values are returned.
        jobs: Resolved worker-process count (:func:`resolve_jobs`).

    Returns:
        Each shard's values, or ``None`` for a quarantined shard (the
        caller reports a ``nan`` cell; the run carries a degraded
        report).  Nobody reads the degraded report of an engine-built
        context, so there the batch raises once it finishes instead.
    """
    installed = resilience.current_context()
    ctx = installed if installed is not None else resilience.RunContext()
    tasks = list(tasks)
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

    def on_complete(idx: int, task: ShardTask, record: ShardRecord) -> None:
        if record.snapshot is not None:
            reg.absorb(record.snapshot)
        results[idx] = record.costs
        ctx.record_shard(record)

    def on_quarantine(idx: int, task: ShardTask, reason: str) -> None:
        _LOG.error("quarantined shard %s: %s", shard_id(task).where, reason)
        ctx.mark_degraded(task, reason)

    # Farm backend: even a single pending shard goes through the farm
    # so the crash/resume story is uniform.
    serial = ctx.farm is None and (jobs <= 1 or len(pending) <= 1)
    if serial:
        _S_SERIAL_BATCHES.inc()
    elif ctx.farm is None:
        try:
            # A batch may mix curves, so check every pending task; one
            # dump pickles the factories they share only once.
            with _S_PICKLE_TIMER.time():
                pickle.dumps([tasks[i] for i in pending])
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
    if reg.enabled:
        # Off the serial path workers cannot write this registry, so
        # each shard returns an isolated snapshot to merge back (exact
        # integer sums).
        tasks = [
            replace(t, collect_metrics=True, snapshot_metrics=not serial)
            for t in tasks
        ]
    items = [(i, tasks[i]) for i in pending]
    if not serial:
        # Largest population first (a stable sort): the costliest cells
        # start early instead of leaving one worker to finish them alone.
        items.sort(key=lambda item: -item[1].n)
    if serial:
        for idx, task in items:
            on_complete(idx, task, _run_sweep_cell(task))
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
        _S_QUEUE_DEPTH.observe(max(0, len(pending) - jobs))
        with _S_DRAIN_TIMER.time():
            resilience.run_supervised(
                _run_sweep_cell_guarded,
                items,
                jobs=jobs,
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


def run_cells(
    tasks: Sequence[ShardTask], *, jobs: Optional[int]
) -> List[tuple[float, ...]]:
    """Run whole-cell shards that each return a few aggregates, and hand
    the values back by column: column ``k`` holds every cell's ``k``-th
    value in ``tasks`` order.  A quarantined cell's values are ``nan``
    (its run carries a degraded report)."""
    cells = run_shards(tasks, jobs=resolve_jobs(jobs))
    return list(zip(*(
        cell if cell is not None else [float("nan")] * (task.run_hi - task.run_lo)
        for task, cell in zip(tasks, cells)
    )))


@dataclass(frozen=True)
class Curve:
    """One curve for :meth:`SweepEngine.curves`: a label, a grid and how
    to compute a cell.

    Attributes:
        label: Series label (part of every cell's stream derivation).
        xs: Positive-count grid.
        factory: An :data:`AlgorithmFactory`, or a
            :data:`BaselineFactory` for a MAC baseline.
        model_factory: Builds the query model per run; ``None`` marks a
            MAC baseline, which reads the population directly.
        threshold: Override of the engine's threshold.
        n: Override of the engine's population size.
        seed: Override of the engine's root seed.
        check_exactness: Assert exact deciders return the ground truth
            on every run (disable for noisy models).
    """

    label: str
    xs: Sequence[int]
    factory: Callable[..., ThresholdDecider]
    model_factory: Optional[ModelFactory] = None
    threshold: Optional[int] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    check_exactness: bool = True


class SweepEngine:
    """Deterministic multi-run sweep executor.

    Every ``(curve, x)`` cell is one shard that computes all of the
    cell's runs; :meth:`curves` runs a whole figure's cells in one
    supervised batch (:func:`run_shards`).

    Args:
        n: Population size (per-curve overridable).
        threshold: Threshold ``t`` (per-curve overridable).
        runs: Repetitions per grid cell (paper: 1000).
        seed: Root seed; every (cell, run) derives its own streams
            (per-curve overridable).
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

    def curves(self, curves: Sequence[Curve]) -> List[Series]:
        """Mean cost of every curve, from one batch of whole-cell shards.

        Returns:
            One mean-cost series with standard errors per curve, in
            ``curves`` order.
        """
        tasks = [
            _SweepCellTask(
                seed=self._seed if c.seed is None else int(c.seed),
                label=c.label,
                x=int(x),
                n=self._n if c.n is None else c.n,
                threshold=self._threshold if c.threshold is None else c.threshold,
                run_lo=0,
                run_hi=self._runs,
                baseline=c.model_factory is None,
                factory=c.factory,
                model_factory=c.model_factory,
                check_exactness=c.check_exactness,
                vectorize=self._vectorize,
            )
            for c in curves
            for x in c.xs
        ]
        cells = iter(run_shards(tasks, jobs=self._jobs))
        out: List[Series] = []
        for c in curves:
            means: List[float] = []
            errs: List[float] = []
            for _ in c.xs:
                # None = quarantined: a degraded run reports a nan cell.
                block = next(cells)
                costs = np.asarray(block or [], dtype=np.float64)
                means.append(float(costs.mean()) if costs.size else float("nan"))
                errs.append(float(costs.std(ddof=1) / np.sqrt(self._runs))
                            if costs.size > 1 else 0.0)
            out.append(Series(
                label=c.label,
                xs=tuple(float(x) for x in c.xs),
                ys=tuple(means),
                stderr=tuple(errs),
            ))
        return out

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
        return self.curves([Curve(
            label, xs, algorithm_factory, model_factory,
            threshold=threshold, check_exactness=check_exactness,
        )])[0]

    def baseline_curve(
        self,
        label: str,
        xs: Sequence[int],
        baseline_factory: BaselineFactory,
        *,
        threshold: Optional[int] = None,
    ) -> Series:
        """Mean slot cost of a MAC baseline (CSMA / sequential) sweep.

        Decisions are checked against ``x >= t`` wherever the baseline
        reports them exact (sequential ordering; CSMA's are not).
        """
        return self.curves([Curve(
            label, xs, baseline_factory, threshold=threshold,
        )])[0]


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
