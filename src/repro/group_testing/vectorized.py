"""Vectorized Monte-Carlo kernel: a whole (label, x)-cell as array ops.

Every figure in the paper is a Monte-Carlo estimate of query cost over
random populations.  The scalar path runs each trial as a Python loop of
:meth:`QueryModel.query` calls; this module executes an entire cell of
``runs`` trials with numpy array operations instead, while consuming the
**exact same RNG streams** so its output is bit-identical to the scalar
path (which stays in the tree as the oracle; see DESIGN.md section 14).

The contract has three parts:

* **RNG streams.**  A :class:`QueryBatch` carries a ``streams(run)``
  callable yielding the ``(pop, model, bins)`` generators for each run.
  The kernel makes precisely the draws the scalar path makes on each --
  the population ``choice``, one ``permutation`` per round, and (2+ only)
  the per-collision capture draws -- and nothing else.  Everything
  *between* draws (counting, verdicts, termination, elimination) is
  vectorized.  A batch without a model belongs to a MAC baseline; its
  runs carry ``(pop, mac)`` streams and its batch deciders live in
  :mod:`repro.mac`.
* **Verdict semantics.**  The single scalar verdict path
  (:meth:`repro.group_testing.model._BaseModel.query` plus each model's
  ``_observe``) is the semantics source this kernel mirrors; the round
  loop mirrors :meth:`repro.core.base.ThresholdAlgorithm._run_round`.
* **Metrics.**  When collection is enabled the kernel tallies
  ``model.queries`` / ``model.verdict.*`` / ``model.bin_size`` exactly as
  the scalar instruments would and absorbs one merged
  :class:`~repro.obs.MetricsSnapshot` per cell, so counter totals
  reconcile exactly with scalar runs.

Anything the kernel cannot reproduce bit-exactly -- detection-failure
hooks (fault plans), model factories that are not a :class:`ModelSpec`,
non-random partitioning, adaptive bin policies -- raises
:class:`UnsupportedBatch`.  :func:`dispatch_batch` is the one place that
chooses between the kernel and the per-run scalar loop; the sweep
engine, :func:`repro.api.threshold_query_batch` and the query service
all call it.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Literal,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.group_testing.model import (
    ModelFactory,
    ModelSpec,
    QueryBudgetExceeded,
    default_capture_probability,
)
from repro.group_testing.population import Population
from repro.obs import HistogramSnapshot, MetricsSnapshot, get_registry
from repro.sim import fastseed
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.core.base import ThresholdDecider

_OBS = get_registry()

#: One counter pair per silent size or capability choice the kernel
#: makes; each pair partitions the batches that reach its choice
#: (DESIGN.md section 11.3).
_SEED_FUSED = _OBS.counter("kernel.seeding.fused")
_SEED_PER_RUN = _OBS.counter("kernel.seeding.per_run")
_DRAW_BULK = _OBS.counter("kernel.draw.bulk")
_DRAW_PER_RUN = _OBS.counter("kernel.draw.per_run")
_CAPTURE_LOCKSTEP = _OBS.counter("kernel.capture.lockstep")
_CAPTURE_PER_RUN = _OBS.counter("kernel.capture.per_run")

#: Each thread's pooled generators for state-loaded streams (slot 0 is
#: the scratch slot for transient draws; per-run bins streams start at
#: slot 1).  A slot must not be reloaded while a borrower still draws
#: from it, and the query service runs the kernel on several executor
#: threads, so every thread gets its own pool.
_POOLS = threading.local()


def _pool() -> fastseed.GeneratorPool:
    """The calling thread's :class:`fastseed.GeneratorPool`."""
    pool = getattr(_POOLS, "pool", None)
    if pool is None:
        pool = _POOLS.pool = fastseed.GeneratorPool()
    return pool


#: Bucket edges of the ``model.bin_size`` histogram (must match
#: :mod:`repro.group_testing.model`).
_BIN_SIZE_EDGES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
_BIN_SIZE_EDGES_ARR = np.asarray(_BIN_SIZE_EDGES)

#: Round safety valve, mirroring :attr:`ThresholdAlgorithm.max_rounds`.
_MAX_ROUNDS = 10_000

#: Cells (runs x (n + 1)) of one round-major row block.  A block's
#: arrays grow with rows x n (hit flags, permutations, prefix sums) and
#: its population pull buffer with rows x x, so blocks of at most
#: ``_BLOCK_CELLS // (n + 1)`` rows bound a cell's memory whatever
#: ``runs`` and ``n`` are.
_BLOCK_CELLS = 1 << 20

#: Most rows in one block.  A thread's generator pool keeps one slot
#: (~1.2 KB) per row of the largest block it ever ran, so this bounds
#: what a large served request pins for the thread's life.
_BLOCK_ROWS = 1024

#: Smallest 2+ cell run on the round-major loop.  Below it the per-run
#: capture loop is cheaper: the lockstep's fixed per-round and per-draw
#: array costs are shared by too few runs (DESIGN.md section 14.2).
_CAPTURE_LOCKSTEP_RUNS = 32

#: Smallest spawned batch whose streams are rebuilt in one fused
#: :func:`fastseed.pcg64_raw` pass.  Below it each run builds its
#: generators: the pass has a fixed cost that a few runs' construction
#: undercuts (DESIGN.md section 14.3).
_FUSED_SEED_RUNS = 6

#: A model-backed run's streams in ``batch.streams`` order; a spawned
#: run's stream j is ``spawn_key=(r, j)``.
_SPAWN_STREAMS = ("pop", "model", "bins")

#: One run's generators: ``(pop, model, bins)`` for a model-backed
#: batch, ``(pop, mac)`` for a MAC-baseline batch (``model`` is ``None``).
RunStreams = Tuple[np.random.Generator, ...]

#: Pure bin-count schedule: round index -> requested bin count.
Schedule = Callable[[int], int]

#: How :func:`dispatch_batch` answered a batch: on the kernel; on the
#: scalar loop because the caller did not allow the kernel; or on the
#: scalar loop although it did (no ``decide_batch``, or the kernel
#: declined).
BatchPath = Literal["kernel", "scalar", "fallback"]


class UnsupportedBatch(Exception):
    """The kernel cannot reproduce this cell bit-exactly; use the scalar path."""


@dataclass(frozen=True)
class QueryBatch:
    """A batch of Monte-Carlo trials, ready for the kernel.

    Attributes:
        n: Population size.
        x: True positive count of every trial's population; for a batch
            whose runs differ in x (``run_x`` set), the largest of them.
        threshold: The queried threshold ``t``.
        run_lo: First run index (inclusive).
        run_hi: Last run index (exclusive).
        model: Builds each run's query model from its population and
            model stream.  The kernel replays only a declarative
            :class:`ModelSpec` and declines any other factory.  ``None``
            marks a MAC-baseline batch: the decider reads each run's
            population itself and draws on the run's ``"mac"`` stream.
        streams: Callable mapping an absolute run index to that run's
            generators (:data:`RunStreams`).  The kernel consumes these
            exactly as the scalar path would.
        seed_info: Optional ``(root_seed, cell)`` pair declaring that run
            ``r``'s streams are the registry streams of
            ``RngRegistry(root_seed).fork(f"{cell}/r{r}")``.  When
            present (and :func:`repro.sim.fastseed.available`), the
            kernel reconstructs the generator states in bulk instead of
            calling ``streams`` -- same streams, a fraction of the
            construction cost.
        run_x: Each run's x (int64, indexed ``run - run_lo``) when the
            runs' populations differ in x; ``None`` when every run has
            ``x``.  x enters a trial only through its population draw.
        spawn_seeds: Optional ``(seeds, keys)`` pair declaring that run
            ``r``'s stream ``j`` is ``SeedSequence(seeds[r - run_lo],
            spawn_key=(keys[r - run_lo], j))`` (uint64 seeds, int64
            keys), the spawned counterpart of ``seed_info``.
    """

    n: int
    x: int
    threshold: int
    run_lo: int
    run_hi: int
    model: Optional[ModelFactory]
    streams: Callable[[int], RunStreams]
    seed_info: Optional[Tuple[int, str]] = field(default=None)
    run_x: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    spawn_seeds: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def runs(self) -> int:
        """Number of trials in the cell."""
        return self.run_hi - self.run_lo

    def xs(self, lo: int, hi: int) -> np.ndarray:
        """The x of runs ``run_lo + lo .. run_lo + hi`` (int64)."""
        if self.run_x is None:
            return np.full(hi - lo, self.x, dtype=np.int64)
        return self.run_x[lo:hi]

    @classmethod
    def for_cell(
        cls,
        *,
        seed: int,
        label: str,
        x: int,
        n: int,
        threshold: int,
        run_lo: int,
        run_hi: int,
        model: Optional[ModelFactory],
    ) -> "QueryBatch":
        """A batch over the sweep engine's per-run registry streams.

        Run ``r`` gets the generators
        ``RngRegistry(seed).fork(f"{label}/x{x}/r{r}")`` derives for the
        names ``"pop"``/``"model"``/``"bins"`` (``"pop"``/``"mac"`` when
        ``model`` is ``None``) -- the stream layout of every sweep cell,
        on the kernel and the scalar path alike.
        """
        root = RngRegistry(seed)
        names = ("pop", "mac") if model is None else ("pop", "model", "bins")

        def streams(run: int) -> RunStreams:
            reg = root.fork(f"{label}/x{x}/r{run}")
            return tuple(reg.stream(name) for name in names)

        return cls(
            n=n,
            x=x,
            threshold=threshold,
            run_lo=run_lo,
            run_hi=run_hi,
            model=model,
            streams=streams,
            seed_info=(seed, f"{label}/x{x}"),
        )

    @classmethod
    def spawned(
        cls,
        *,
        segments: Sequence[Tuple[int, int, int]],
        n: int,
        threshold: int,
        model: ModelFactory,
    ) -> "QueryBatch":
        """A batch over ``Generator.spawn``-derived per-run streams.

        ``segments`` lists ``(seed, runs, x)`` triples laid end to end.
        Run ``r`` of a segment draws a population of ``x`` positives and
        gets the ``(pop, model, bins)`` triple
        ``default_rng(seed).spawn(runs)[r].spawn(3)`` -- the stream
        layout of :func:`repro.api.threshold_query_batch` -- derived as
        ``SeedSequence(seed, spawn_key=(r, j))``, which is how numpy
        spawns.  A run's streams therefore depend on its segment's seed
        and its index within the segment alone, whatever else shares the
        batch, and its x enters only its population draw.  The kernel
        rebuilds the streams in bulk (``spawn_seeds``) when every seed
        is below ``2**64``, and otherwise builds them per run.

        Raises:
            ValueError: If a seed is negative, as ``default_rng`` would;
                checked here so a bad seed fails where it is passed, not
                inside the kernel.
        """
        seeds: List[int] = []
        offsets: List[int] = []
        counts: List[int] = []
        xs: List[int] = []
        total = 0
        for seed, runs, x in segments:
            if seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
            seeds.append(seed)
            offsets.append(total)
            counts.append(runs)
            xs.append(x)
            total += runs

        def streams(run: int) -> RunStreams:
            idx = bisect.bisect_right(offsets, run) - 1
            seed, local = seeds[idx], run - offsets[idx]
            return tuple(
                np.random.Generator(
                    np.random.PCG64(
                        np.random.SeedSequence(seed, spawn_key=(local, j))
                    )
                )
                for j in range(len(_SPAWN_STREAMS))
            )

        spawn_seeds = None
        if max(seeds, default=0) < 1 << 64 and max(counts, default=0) <= 1 << 32:
            spawn_seeds = (
                np.repeat(np.array(seeds, dtype=np.uint64), counts),
                np.arange(total, dtype=np.int64)
                - np.repeat(np.array(offsets, dtype=np.int64), counts),
            )
        return cls(
            n=n,
            x=max(xs, default=0),
            threshold=threshold,
            run_lo=0,
            run_hi=total,
            model=model,
            streams=streams,
            run_x=(
                np.repeat(np.array(xs, dtype=np.int64), counts)
                if len(set(xs)) > 1
                else None
            ),
            spawn_seeds=spawn_seeds,
        )


@dataclass(frozen=True)
class BatchDecision:
    """What a batch decider returns for one cell.

    Attributes:
        decisions: Per-run verdicts (``bool``, length ``batch.runs``).
        queries: Per-run charged query counts (``int64``).
        exact: Whether the algorithm is exact (always-correct), i.e.
            whether decisions may be checked against ground truth.
    """

    decisions: np.ndarray
    queries: np.ndarray
    exact: bool


def dispatch_batch(
    decider: "ThresholdDecider", batch: QueryBatch, *, vectorize: bool
) -> Tuple[BatchDecision, BatchPath]:
    """Answer every run of ``batch`` on the kernel or the scalar oracle.

    The one place that chooses between the two.  With ``vectorize`` set
    and a decider that has ``decide_batch``, the kernel answers the whole
    batch or declines it with :class:`UnsupportedBatch`.  Otherwise, and
    after a decline, each run is decided on the scalar path over the same
    ``batch.streams(run)``: a ``from_count`` population on the pop
    stream, ``batch.model`` on the model stream, ``decide`` on the bins
    stream.  A MAC baseline (``batch.model`` is ``None``) is handed the
    population itself and its ``"mac"`` stream.  Both paths give the
    same decisions, query counts and ``exact`` whichever stream layout
    the batch uses.

    Returns:
        The decision and the :data:`BatchPath` taken.  The scalar loop's
        ``exact`` holds only if every run was exact.

    Raises:
        Whatever the kernel or a scalar run raises, unchanged.  A failed
        scalar run's exception carries the run's absolute index as
        ``failed_run``, so a caller batching the runs of several owners
        can name the one that failed.
    """
    path: BatchPath = "scalar"
    if vectorize:
        path = "fallback"
        decide_batch = getattr(decider, "decide_batch", None)
        if decide_batch is not None:
            try:
                return decide_batch(batch), "kernel"
            except UnsupportedBatch:
                pass
    decisions = np.zeros(batch.runs, dtype=bool)
    queries = np.zeros(batch.runs, dtype=np.int64)
    exact = True
    xs = batch.xs(0, batch.runs).tolist()
    for i, run in enumerate(range(batch.run_lo, batch.run_hi)):
        try:
            pop_rng, *rest = batch.streams(run)
            population = Population.from_count(batch.n, xs[i], pop_rng)
            if batch.model is None:
                (mac_rng,) = rest
                result = decider.decide(population, batch.threshold, mac_rng)
            else:
                model_rng, bins_rng = rest
                result = decider.decide(
                    batch.model(population, model_rng), batch.threshold, bins_rng
                )
        except Exception as exc:
            setattr(exc, "failed_run", run)
            raise
        decisions[i] = result.decision
        queries[i] = result.queries
        exact = exact and result.exact
    return BatchDecision(decisions=decisions, queries=queries, exact=exact), path


class _CellTally:
    """Accumulates the cell's model.* metrics for one exact absorb.

    Mirrors :meth:`repro.group_testing.model._BaseModel._record`: one
    ``model.queries`` increment, one ``model.bin_size`` observation and
    one verdict counter per query.  Integer bucket/count arithmetic keeps
    the merge with scalar shards exact.
    """

    __slots__ = (
        "queries", "silent", "activity", "capture",
        "buckets", "size_sum", "size_min", "size_max",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.silent = 0
        self.activity = 0
        self.capture = 0
        self.buckets = np.zeros(len(_BIN_SIZE_EDGES) + 1, dtype=np.int64)
        self.size_sum = 0
        self.size_min: Optional[int] = None
        self.size_max: Optional[int] = None

    def record(self, sizes: np.ndarray, n_silent: int, n_capture: int) -> None:
        """Count ``len(sizes)`` queried bins with the given verdict split."""
        nq = int(sizes.size)
        if not nq:
            return
        self.queries += nq
        self.silent += n_silent
        self.capture += n_capture
        self.activity += nq - n_silent - n_capture
        idx = np.searchsorted(_BIN_SIZE_EDGES_ARR, sizes, side="left")
        self.buckets += np.bincount(idx, minlength=len(_BIN_SIZE_EDGES) + 1)
        self.size_sum += int(sizes.sum())
        lo, hi = int(sizes.min()), int(sizes.max())
        if self.size_min is None or lo < self.size_min:
            self.size_min = lo
        if self.size_max is None or hi > self.size_max:
            self.size_max = hi

    def record_batch(
        self,
        base: np.ndarray,
        n_small: np.ndarray,
        n_big: np.ndarray,
        n_silent: np.ndarray,
        n_capture: Optional[np.ndarray] = None,
    ) -> None:
        """Count one balanced round per row: ``n_small`` queried bins of
        size ``base`` plus ``n_big`` of size ``base + 1``, of which
        ``n_silent`` read silent and ``n_capture`` (2+ only) captured;
        every other response is an activity verdict."""
        nq = int(n_small.sum() + n_big.sum())
        if not nq:
            return
        self.queries += nq
        sil = int(n_silent.sum())
        cap = 0 if n_capture is None else int(n_capture.sum())
        self.silent += sil
        self.capture += cap
        self.activity += nq - sil - cap
        idx_small = np.searchsorted(_BIN_SIZE_EDGES_ARR, base, side="left")
        idx_big = np.searchsorted(_BIN_SIZE_EDGES_ARR, base + 1, side="left")
        np.add.at(self.buckets, idx_small, n_small)
        np.add.at(self.buckets, idx_big, n_big)
        self.size_sum += int((base * n_small + (base + 1) * n_big).sum())
        small = n_small > 0
        big = n_big > 0
        lo_cands = []
        hi_cands = []
        if small.any():
            lo_cands.append(int(base[small].min()))
            hi_cands.append(int(base[small].max()))
        if big.any():
            lo_cands.append(int(base[big].min()) + 1)
            hi_cands.append(int(base[big].max()) + 1)
        if lo_cands:
            lo, hi = min(lo_cands), max(hi_cands)
            if self.size_min is None or lo < self.size_min:
                self.size_min = lo
            if self.size_max is None or hi > self.size_max:
                self.size_max = hi

    def flush(self) -> None:
        """Absorb the tally into the process registry (one exact merge)."""
        if not self.queries:
            return
        counters = {"model.queries": self.queries}
        if self.silent:
            counters["model.verdict.silent"] = self.silent
        if self.activity:
            counters["model.verdict.activity"] = self.activity
        if self.capture:
            counters["model.verdict.capture"] = self.capture
        hist = HistogramSnapshot(
            edges=_BIN_SIZE_EDGES,
            counts=tuple(int(c) for c in self.buckets),
            total=self.queries,
            sum=float(self.size_sum),
            min=float(self.size_min) if self.size_min is not None else None,
            max=float(self.size_max) if self.size_max is not None else None,
        )
        _OBS.absorb(
            MetricsSnapshot(counters=counters, histograms={"model.bin_size": hist})
        )


def _draw_population(
    n: int, x: int, pop_rng: np.random.Generator
) -> np.ndarray:
    """The population draw as a positive mask, exactly as
    :meth:`Population.from_count` makes it."""
    mask = np.zeros(n, dtype=bool)
    if x:
        mask[pop_rng.choice(n, size=x, replace=False)] = True
    return mask


#: Cached ASCII forms of run indices (shared by every cell's seed loop).
_RUN_DIGITS: List[bytes] = []

#: Serialises growth of :data:`_RUN_DIGITS` across kernel threads.
_RUN_DIGITS_LOCK = threading.Lock()


def _run_digits(lo: int, hi: int) -> List[bytes]:
    """``b"%d" % r`` for ``r`` in ``lo..hi``, from a growing cache."""
    if len(_RUN_DIGITS) < hi:
        with _RUN_DIGITS_LOCK:
            while len(_RUN_DIGITS) < hi:
                _RUN_DIGITS.append(b"%d" % len(_RUN_DIGITS))
    return _RUN_DIGITS[lo:hi]


def _registry_seeds(batch: QueryBatch, names: Sequence[str]) -> List[int]:
    """Every named stream's ``SeedSequence`` seed for every run of a
    ``seed_info`` batch, name-major, via the registry's two SHA-256
    derivations (the fork, then the stream name)."""
    assert batch.seed_info is not None
    root, cell = batch.seed_info
    sha = hashlib.sha256
    from_bytes = int.from_bytes
    prefix = sha(f"{root}/fork/{cell}/r".encode("utf-8"))
    suffixes = [("/" + name).encode("utf-8") for name in names]
    seeds: List[List[int]] = [[] for _ in names]
    appends_suffixes = tuple(zip([s.append for s in seeds], suffixes))
    for rb in _run_digits(batch.run_lo, batch.run_hi):
        h = prefix.copy()
        h.update(rb)
        fork = b"%d" % (from_bytes(h.digest()[:8], "big") >> 1)
        for append, suffix in appends_suffixes:
            append(from_bytes(sha(fork + suffix).digest()[:8], "big") >> 1)
    return [seed for per_name in seeds for seed in per_name]


def _spawn_keys(
    batch: QueryBatch, names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every named stream's seed and ``(r, j)`` spawn key for every run
    of a ``spawn_seeds`` batch, name-major."""
    assert batch.spawn_seeds is not None
    seeds, keys = batch.spawn_seeds
    runs = batch.runs
    spawn_keys = np.empty((len(names) * runs, 2), dtype=np.uint32)
    spawn_keys[:, 0] = np.tile(keys, len(names))
    spawn_keys[:, 1] = np.repeat([_SPAWN_STREAMS.index(n) for n in names], runs)
    return np.tile(seeds, len(names)), spawn_keys


def fast_states(
    batch: QueryBatch, names: Sequence[str], raw: Sequence[str] = ()
) -> Optional[Dict[str, Any]]:
    """Bulk-reconstructed PCG64 states for the named per-run streams.

    One fused :func:`fastseed.pcg64_raw` pass rebuilds every named
    stream of every run, in either seed contract: ``seed_info`` (the
    two SHA-256 derivations of ``RngRegistry(root).fork(f"{cell}/r{r}")
    .stream(name)``) or ``spawn_seeds`` (``SeedSequence(seed,
    spawn_key=(r, j))``).  ``out[name][i]`` is then the ``(state, inc)``
    of run ``run_lo + i``'s stream ``name``; streams listed in ``raw``
    come back as :func:`fastseed.pcg64_raw` half arrays instead, ready
    for the bulk output emulation.

    ``None`` -- callers then build each run's generators from
    ``batch.streams`` -- when the batch carries no seed contract, this
    numpy defeats :mod:`repro.sim.fastseed`, or a spawned batch has
    fewer than :data:`_FUSED_SEED_RUNS` runs.
    """
    spawned = batch.spawn_seeds is not None and batch.runs >= _FUSED_SEED_RUNS
    if not (batch.seed_info is not None or spawned) or not fastseed.available():
        _SEED_PER_RUN.inc()
        return None
    _SEED_FUSED.inc()
    if batch.seed_info is not None:
        halves = fastseed.pcg64_raw(_registry_seeds(batch, names))
    else:
        halves = fastseed.pcg64_raw(*_spawn_keys(batch, names))
    runs = batch.runs
    out: Dict[str, Any] = {}
    for i, name in enumerate(names):
        part = tuple(a[i * runs:(i + 1) * runs] for a in halves)
        out[name] = part if name in raw else fastseed.pairs_from_raw(part)
    return out


def _run_streams(
    batch: QueryBatch, states: Optional[Dict[str, Any]], names: Sequence[str]
) -> Iterator[RunStreams]:
    """Each run's generators for the model-batch streams ``names``.

    Loaded into the thread's pooled slots from ``states`` (a
    :func:`fast_states` result holding ``(state, inc)`` pairs for every
    name), or picked out of ``batch.streams(run)`` when ``states`` is
    ``None``.  Pooled slots are reloaded for the next run, so a run's
    draws must finish before the iterator advances.
    """
    if states is None:
        picks = [_SPAWN_STREAMS.index(name) for name in names]
        for run in range(batch.run_lo, batch.run_hi):
            gens = batch.streams(run)
            yield tuple(gens[j] for j in picks)
        return
    pool = _pool()
    pool.reserve(len(names))
    load = pool.load
    for pairs in zip(*(states[name] for name in names)):
        yield tuple(load(slot, st, inc) for slot, (st, inc) in enumerate(pairs))


def _bulk_draw_pays(rows: int, x: int) -> bool:
    """Whether ``rows`` population draws of size ``x`` cost less in
    lockstep (:func:`fastseed.choice_bulk`) than one by one.

    The cost model is fitted to DESIGN.md section 14.3's table (n = 128,
    CPU time): the bulk loops cost about ``230 + 16x`` µs whatever the
    row count, plus ``0.2x`` µs per row, against about 12 µs per row
    drawn per run.  Bulk therefore pays from 23 rows at x = 2, 69 at
    x = 20 and 416 at x = 48, and never from x = 60.
    """
    return rows * (12.0 - 0.2 * x) >= 230.0 + 16.0 * x


def mark_positives(
    hit: np.ndarray,
    pop: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    n: int,
    xs: Union[int, np.ndarray],
) -> None:
    """Mark each run's population draw in the rows of ``hit``.

    ``hit`` is a zeroed, C-contiguous boolean ``(rows, width >= n)``
    matrix, ``pop`` the rows' ``"pop"`` stream states as
    :func:`fastseed.pcg64_raw` halves and ``xs`` each row's x (or one x
    for every row); row ``i`` gets ``True`` at the node ids
    :meth:`Population.from_count` draws, none when its x is 0.  The pop
    stream is consumed by this one draw and nothing else, so
    result-equality suffices.  The rows of each x value are drawn
    together: all their ``choice`` calls are emulated in lockstep
    (:func:`fastseed.choice_bulk`) and scattered into the flat matrix
    when :func:`_bulk_draw_pays` says their count covers the lockstep's
    fixed cost and ``2 * x <= n + 16``, and made per run on a pooled
    generator otherwise.  Bulk cost grows with the pull count (~2x)
    while the per-run loop's is nearly flat, so the rows bulk needs
    grow with x, and large draws stay per run.
    """
    rows, width = hit.shape
    xs = np.broadcast_to(np.asarray(xs, dtype=np.int64), (rows,))
    # A set, not np.unique: its first call in a process costs ~17 ms,
    # which every fresh sweep worker would pay in its first shard.
    values = sorted(set(xs.tolist()))
    for x in values:
        if not x:
            continue
        if len(values) == 1:
            at, part = np.arange(rows, dtype=np.int64), pop
        else:
            at = np.flatnonzero(xs == x)
            part = tuple(a[at] for a in pop)
        # ``pop`` comes from fast_states, which already required
        # fastseed.available().
        idx = (
            fastseed.choice_bulk(part, n, x)
            if _bulk_draw_pays(at.size, x) and 2 * x <= n + 16
            else None
        )
        if idx is not None:
            _DRAW_BULK.inc()
            hit.ravel()[idx + (at * width)[:, None]] = True
            continue
        _DRAW_PER_RUN.inc()
        pool = _pool()
        pool.reserve(1)
        for i, (st, inc) in zip(at.tolist(), fastseed.pairs_from_raw(part)):
            hit[i, pool.load(0, st, inc).choice(n, size=x, replace=False)] = True


def _model_spec(batch: QueryBatch) -> ModelSpec:
    """The batch's declarative model; any other factory is not replayable."""
    if not isinstance(batch.model, ModelSpec):
        raise UnsupportedBatch(
            f"model factory {type(batch.model).__name__} is not a ModelSpec"
        )
    return batch.model


def _validate_lockstep(batch: QueryBatch) -> Tuple[ModelSpec, int]:
    """Common feasibility checks; returns the model spec and the evidence
    resolution ``k``."""
    spec = _model_spec(batch)
    if spec.detection_failure is not None:
        raise UnsupportedBatch("detection-failure hooks are not vectorized")
    if spec.kind == "1+":
        return spec, 1
    if spec.kind == "k+":
        if spec.k < 1:
            raise ValueError(f"k must be >= 1, got {spec.k}")
        return spec, spec.k
    if spec.kind == "2+":
        return spec, 2  # an undecodable collision proves two positives
    raise UnsupportedBatch(f"model kind {spec.kind!r} is not vectorized")


def run_lockstep(
    batch: QueryBatch,
    schedule: Schedule,
    *,
    algorithm: str = "vectorized",
) -> BatchDecision:
    """Execute a cell of round-structured exact trials.

    One :func:`fast_states` call per cell rebuilds its streams.  1+ and
    k+ cells, and 2+ cells of at least :data:`_CAPTURE_LOCKSTEP_RUNS`
    runs whose streams it rebuilt, run round-major
    (:func:`_run_rounds`) in row blocks of at most
    ``_BLOCK_CELLS // (n + 1)`` and :data:`_BLOCK_ROWS` runs, so a
    cell's transient memory is bounded whatever ``runs`` and ``n`` are;
    rows are independent, so blocking changes no answer.  Every other
    2+ cell -- fewer runs, or streams it could not rebuild (a custom
    ``streams``, a seed of ``2**64`` or more, :func:`fastseed.available`
    false) -- runs per run (:func:`_run_one_capture`), on pooled
    generators loaded with the rebuilt states or on the generators of
    ``batch.streams`` themselves.

    Args:
        batch: The cell description and per-run streams.
        schedule: Pure map from round index to requested bin count; only
            algorithms whose bin policy depends on nothing but the round
            index (2tBins, Exponential Increase) can be expressed this
            way -- adaptive policies stay on the scalar path.
        algorithm: Name used in error messages.

    Returns:
        The per-run decisions and query counts (``exact=True``).

    Raises:
        UnsupportedBatch: If the model factory is not a
            :class:`ModelSpec`, or the model cannot be reproduced
            bit-exactly.
        ValueError: If the threshold is negative (mirroring ``decide``),
            or a queried collision's capture probability is out of range.
    """
    spec, k = _validate_lockstep(batch)
    if batch.threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {batch.threshold}")
    tally = _CellTally() if _OBS.enabled else None
    decisions = np.zeros(batch.runs, dtype=bool)
    queries = np.zeros(batch.runs, dtype=np.int64)
    odds: Optional[_CaptureOdds] = None
    if spec.kind == "2+":
        odds = _CaptureOdds(
            spec.capture_probability
            if spec.capture_probability is not None
            else default_capture_probability
        )
    # The per-run capture loop loads every stream into a generator; the
    # lockstep reads the pop and model streams as raw halves, and the
    # model stream only when a run has collisions (x >= 2; batch.x is
    # the largest).
    per_run = odds is not None and batch.runs < _CAPTURE_LOCKSTEP_RUNS
    if per_run:
        names = ["pop", "model", "bins"]
    else:
        names = ["pop"] if batch.x else []
        if odds is not None and batch.x >= 2:
            names.append("model")
        names.append("bins")
    states = fast_states(batch, names, raw=() if per_run else ("pop", "model"))
    if odds is not None and (per_run or states is None):
        _CAPTURE_PER_RUN.inc()
        xs = batch.xs(0, batch.runs).tolist()
        runs = _run_streams(batch, states, ("pop", "model", "bins"))
        for i, (pop_rng, model_rng, bins_rng) in enumerate(runs):
            mask = _draw_population(batch.n, xs[i], pop_rng)
            decisions[i], queries[i] = _run_one_capture(
                batch.n, batch.threshold, mask, model_rng, bins_rng,
                schedule, odds.p_cap, spec.max_queries, algorithm, tally,
            )
    else:
        if odds is not None:
            _CAPTURE_LOCKSTEP.inc()
        block = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // (batch.n + 1)))
        for lo in range(0, batch.runs, block):
            hi = min(lo + block, batch.runs)
            _run_block(
                batch, lo, hi, states, schedule, k, odds, spec.max_queries,
                algorithm, tally, decisions[lo:hi], queries[lo:hi],
            )
    if tally is not None:
        tally.flush()
    return BatchDecision(decisions=decisions, queries=queries, exact=True)


class _CaptureOdds:
    """``capture_probability(c)`` per collision size, range-checked.

    Evaluated once per distinct ``c`` a queried collision reaches, as
    the scalar model would on reaching it: an out-of-range value raises
    the model's ``ValueError`` then, and never for a ``c`` no queried
    bin has.
    """

    def __init__(self, p_cap: Callable[[int], float]) -> None:
        self.p_cap = p_cap
        self._table = np.full(0, np.nan)

    def __call__(self, c: np.ndarray) -> np.ndarray:
        """The capture probability of each collision size in ``c``."""
        top = int(c.max())
        if top >= self._table.size:
            grown = np.full(max(top + 1, 2 * self._table.size), np.nan)
            grown[: self._table.size] = self._table
            self._table = grown
        p = self._table[c]
        missing = np.isnan(p)
        if missing.any():
            for size in np.unique(c[missing]).tolist():
                prob = self.p_cap(size)
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(f"capture probability out of range: {prob}")
                self._table[size] = prob
            p = self._table[c]
        return p


def _round_layout(
    cand: np.ndarray,
    bins_requested: int,
    bins_rng: np.random.Generator,
    mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One round's partition: the single ``permutation`` draw plus layout.

    Returns ``(perm, starts, sizes, counts, hits)`` where bin ``b`` holds
    the permuted candidates ``perm[starts[b]:starts[b+1]]`` (positions
    into ``cand``), ``counts[b]`` its positive count, and ``hits`` the
    positivity of each permuted slot.  Matches
    :func:`repro.group_testing.binning.partition_random`: balanced
    contiguous chunks of one uniformly random permutation, zero-member
    bins never materialised.
    """
    m = cand.size
    perm = bins_rng.permutation(m)
    effective = min(bins_requested, m)
    base, extra = divmod(m, effective)
    idx = np.arange(effective + 1, dtype=np.int64)
    starts = idx * base + np.minimum(idx, extra)
    sizes = np.diff(starts)
    hits = mask[cand[perm]]
    hit_cum = np.concatenate(([0], np.cumsum(hits, dtype=np.int64)))
    counts = hit_cum[starts[1:]] - hit_cum[starts[:-1]]
    return perm, starts, sizes, counts, hits


def _run_block(
    batch: QueryBatch,
    lo: int,
    hi: int,
    states: Optional[Dict[str, Any]],
    schedule: Schedule,
    k: int,
    odds: Optional[_CaptureOdds],
    max_queries: Optional[int],
    algorithm: str,
    tally: Optional[_CellTally],
    decisions: np.ndarray,
    queries: np.ndarray,
) -> None:
    """Runs ``run_lo + lo .. run_lo + hi`` of a cell, round-major.

    Draws each row's population into the round-0 hit flags, positions
    its bins stream and -- for a 2+ cell (``odds`` set) -- its model
    stream replay, then hands the block to :func:`_run_rounds`.
    ``states`` is the whole cell's :func:`fast_states`; only a 1+ or k+
    cell comes here without them (``None``), and then draws on the
    generators of ``batch.streams``.  ``decisions``/``queries`` are
    this block's views.
    """
    n, runs = batch.n, hi - lo
    xs = batch.xs(lo, hi)
    # Positive masks double as round-0 hit flags: the candidate list
    # starts as 0..n-1 in order, so flags are indexed by candidate id.
    # The extra always-False sentinel column lets padded permutation
    # slots gather False without any validity masking.
    hit = np.zeros((runs, n + 1), dtype=bool)
    replay: Optional[fastseed.DrawReplay] = None
    bins_gens: List[np.random.Generator]
    if states is not None:
        pool = _pool()
        pool.reserve(1 + runs)
        load = pool.load
        if batch.x:
            mark_positives(hit, tuple(a[lo:hi] for a in states["pop"]), n, xs)
        bins_gens = [
            load(1 + i, st, inc) for i, (st, inc) in enumerate(states["bins"][lo:hi])
        ]
        if "model" in states:
            replay = fastseed.DrawReplay(tuple(a[lo:hi] for a in states["model"]))
    else:
        bins_gens = []
        for i, x in enumerate(xs.tolist()):
            pop_rng, _model_rng, bins_rng = batch.streams(batch.run_lo + lo + i)
            if x:
                hit[i, pop_rng.choice(n, size=x, replace=False)] = True
            bins_gens.append(bins_rng)
    _run_rounds(
        n, batch.threshold, hit, bins_gens, replay, schedule, k, odds,
        max_queries, algorithm, tally, decisions, queries,
    )


def _run_rounds(
    n: int,
    threshold: int,
    hit: np.ndarray,
    bins_gens: List[np.random.Generator],
    replay: Optional[fastseed.DrawReplay],
    schedule: Schedule,
    k: int,
    odds: Optional[_CaptureOdds],
    max_queries: Optional[int],
    algorithm: str,
    tally: Optional[_CellTally],
    decisions: np.ndarray,
    queries: np.ndarray,
) -> None:
    """All trials of a block, processed round-major.

    Every run's per-round *draws* stay sequential on its own streams
    (run ``r`` consumes exactly what the scalar path would), but all
    *computation* -- layout, counts, termination, elimination -- runs
    once per round over the whole active cohort as 2-D array reductions.
    Runs sit in the rows of a hit-flag matrix padded to the widest
    surviving candidate list; a run's decision depends only on its
    candidate count and hit pattern, so candidate identities are never
    materialised.

    A round's query-by-query state is a pair of prefix sums (cumulative
    evidence, cumulative eliminations), so both termination conditions
    reduce to per-row first-index searches.  A row's ``need`` is the
    threshold less its confirmed positives, which only 2+ captures
    raise.  With ``odds`` set (2+), the one model-specific part is the
    capture step (:func:`_capture_step`, drawing on ``replay``), which
    fixes the outcome of every queried collision before the prefix
    sums: a capture adds 1 to the evidence instead of a collision's 2,
    and confirms and removes its winner, as does every lone reply.
    """
    runs = hit.shape[0]
    if threshold == 0:
        decisions[:] = True
        return
    if n < threshold:
        return
    # Slot-sized arrays (permutations, prefix sums, slot -> bin maps and
    # flat indices into ``rows x (width + 1)`` matrices) are int32: a
    # block holds at most max(_BLOCK_CELLS, n + 1) cells, so every
    # index fits, at half the memory of int64.
    active = np.arange(runs, dtype=np.int64)
    m = np.full(runs, n, dtype=np.int64)
    need = np.full(runs, threshold, dtype=np.int64)
    totals = np.zeros(runs, dtype=np.int64)
    for round_index in range(_MAX_ROUNDS):
        if not active.size:
            return
        bins_requested = schedule(round_index)
        if bins_requested < 1:
            raise RuntimeError(f"{algorithm}: bin policy returned {bins_requested}")
        rows = active.size
        width = int(m.max())
        eff = np.minimum(bins_requested, m)
        n_bins = int(eff.max())
        # Flat row offsets: 2-D gathers/scatters below run as 1-D
        # ``take``/fancy assignment on raveled arrays, which skips the
        # python-level index plumbing of ``take_along_axis``.  ``hit``
        # rows are ``width + 1`` wide (sentinel column at ``width``).
        row_i = np.arange(rows, dtype=np.int32)
        off_w1 = (row_i * np.int32(width + 1))[:, None]
        off_b = row_i * np.int32(n_bins)
        # The only per-run work: each run's single permutation draw,
        # done as an in-place shuffle of a prefilled 0..m-1 row (same
        # stream consumption and values as ``permutation``, whatever
        # the dtype; no per-run arange allocation).  Padded slots point
        # at the sentinel column.
        perm = np.broadcast_to(
            np.arange(width, dtype=np.int32), (rows, width)
        ).copy()
        if width > 1:
            perm[np.arange(width, dtype=np.int32) >= m[:, None]] = width
            act = active.tolist()
            for j, mj in enumerate(m.tolist()):
                bins_gens[act[j]].shuffle(perm[j, :mj])
        # Balanced layout per row: the first ``extra`` bins get
        # ``base + 1`` members, the rest ``base`` (partition_random).
        # ``starts_ext[:, b]``/``starts_ext[:, b + 1]`` bound bin ``b``;
        # clipping at ``m`` collapses the bins a short row doesn't have.
        base = m // eff
        extra = m - base * eff
        ibin_ext = np.arange(n_bins + 1, dtype=np.int64)
        bin_valid = ibin_ext[:n_bins] < eff[:, None]
        starts_ext = np.minimum(
            ibin_ext * base[:, None] + np.minimum(ibin_ext, extra[:, None]),
            m[:, None],
        )
        sizes = starts_ext[:, 1:] - starts_ext[:, :-1]
        hits_slot = hit.ravel().take(perm + off_w1)
        cum = np.zeros((rows, width + 1), dtype=np.int32)
        np.cumsum(hits_slot, axis=1, out=cum[:, 1:])
        cum_at = cum.ravel().take(starts_ext + off_w1)
        counts = cum_at[:, 1:] - cum_at[:, :-1]
        silent = bin_valid & (counts == 0)
        # Surviving candidates after bin b (silent bins eliminate; a
        # capture moves a node from the candidates to the confirmed, so
        # it never trips False) and evidence after bin b (min_positives:
        # min(count, k), 1 for a capture, 0 for silence).  Both prefixes
        # are monotone, so the value at the last real bin says whether
        # each condition fires at all and argmax finds the first firing
        # bin.
        elim_cum = np.cumsum(sizes * silent, axis=1)
        fire_false = bin_valid & ((m - need)[:, None] < elim_cum)
        idx_last = (eff - 1) + off_b
        i_false = np.where(
            (m - elim_cum.ravel().take(idx_last)) < need,
            np.argmax(fire_false, axis=1),
            eff,
        )
        evidence = np.minimum(counts, k)
        if odds is not None:
            limit = None if max_queries is None else max_queries - totals
            winners = _capture_step(
                replay, active, counts, evidence, need, i_false, limit, odds
            )
            captured = winners >= 0
            evidence -= captured
            confirms = captured | (counts == 1)
        ev_cum = np.cumsum(evidence, axis=1)
        fire_true = bin_valid & (ev_cum >= need[:, None])
        i_true = np.where(
            ev_cum.ravel().take(idx_last) >= need,
            np.argmax(fire_true, axis=1),
            eff,
        )
        stop = np.minimum(i_true, i_false)
        resolved = stop < eff
        queried = np.where(resolved, stop + 1, eff)
        totals += queried
        if max_queries is not None and int(totals.max()) > max_queries:
            raise QueryBudgetExceeded(f"query budget of {max_queries} exceeded")
        if odds is not None:
            confirmed = (confirms & (ibin_ext[:n_bins] < queried[:, None])).sum(axis=1)
        if tally is not None:
            n_big = np.minimum(queried, extra)
            sil_q = np.cumsum(silent, axis=1).ravel().take(queried - 1 + off_b)
            tally.record_batch(
                base, queried - n_big, n_big, sil_q,
                confirmed if odds is not None else None,
            )
        if resolved.any():
            done = active[resolved]
            # The True check runs first in the scalar executor, so it
            # wins when both fire on the same query.
            decisions[done] = (i_true <= i_false)[resolved]
            queries[done] = totals[resolved]
        live = ~resolved
        if not live.any():
            return
        # Full round, unresolved: silent bins eliminate their members,
        # and (2+) each confirmed positive leaves -- a lone reply, or a
        # captured collision's winner, which is positive
        # ``cum_at[b] + winner`` of its row in slot order.
        if odds is not None:
            conf_r, conf_b = np.nonzero(confirms & live[:, None])
            rank = cum_at.ravel().take(conf_r * (n_bins + 1) + conf_b) + np.maximum(
                winners.ravel().take(conf_r * n_bins + conf_b), 0
            )
            npos = cum[:, width]
            conf_slot = (
                np.flatnonzero(hits_slot).take((np.cumsum(npos) - npos)[conf_r] + rank)
                - conf_r * width
            )
            conf_r = (np.cumsum(live) - 1)[conf_r]
            need = need - confirmed
        # Resolved rows drop out *before* the elimination arrays are
        # built -- the cohort shrinks fast, so every op below runs over
        # survivors only.  Map each slot to its bin, mark slots of
        # silent bins, scatter the keep flags back to candidate order
        # (padded slots land in the sentinel/scratch column), then
        # compact rows left.
        if not live.all():
            active = active[live]
            totals = totals[live]
            perm = perm[live]
            silent = silent[live]
            starts_ext = starts_ext[live]
            hit = hit[live]
            need = need[live]
            rows = active.size
            row_i = np.arange(rows, dtype=np.int32)
            off_w1 = (row_i * np.int32(width + 1))[:, None]
            off_b = row_i * np.int32(n_bins)
        # Slot -> bin without per-slot division: scatter a marker at
        # each bin's start and prefix-sum.  Bins below a row's ``eff``
        # are non-empty (``base >= 1``) so markers below ``m`` never
        # collide; clipped starts of absent bins collide at ``m``, and
        # slots there map through the sentinel column anyway.
        bound = np.zeros((rows, width + 1), dtype=np.int16)
        bound.ravel()[starts_ext[:, 1:n_bins] + off_w1] = 1
        bin_of = np.cumsum(bound[:, :width], axis=1, dtype=np.int32)
        slot_keep = ~silent.ravel().take(bin_of + off_b[:, None])
        if odds is not None:
            slot_keep[conf_r, conf_slot] = False
        keep_flat = np.zeros(rows * (width + 1), dtype=bool)
        keep_flat[(perm + off_w1).ravel()] = slot_keep.ravel()
        keep2d = keep_flat.reshape(rows, width + 1)
        keep2d[:, width] = False
        kept_flags = hit[keep2d]
        m = keep2d.sum(axis=1)
        width_next = int(m.max())
        offsets = np.concatenate(([0], np.cumsum(m)[:-1]))
        flat = np.zeros(rows * (width_next + 1), dtype=bool)
        flat[
            np.arange(kept_flags.size, dtype=np.int32)
            + np.repeat(
                (row_i * (width_next + 1) - offsets).astype(np.int32), m
            )
        ] = kept_flags
        hit = flat.reshape(rows, width_next + 1)
    raise RuntimeError(
        f"{algorithm}: round safety valve ({_MAX_ROUNDS}) tripped"
    )


def _capture_step(
    replay: Optional[fastseed.DrawReplay],
    streams: np.ndarray,
    counts: np.ndarray,
    evidence: np.ndarray,
    need: np.ndarray,
    i_false: np.ndarray,
    limit: Optional[np.ndarray],
    odds: _CaptureOdds,
) -> np.ndarray:
    """One round's capture draws, for every row at once.

    Row ``i`` (model stream ``streams[i]`` of ``replay``) makes the draws
    the scalar model makes on this round's queried collision bins
    (``counts >= 2``), in bin order: ``random() < p(c)``, then on a
    capture ``integers(c)`` for the winner's index among the bin's
    positives.  The loop runs over collision rank ``j``, vectorized over
    the rows still drawing.  A row stops before its ``j``-th collision
    bin ``b`` once either check has fired at an earlier bin, both
    decided by earlier draws alone: True when the evidence before ``b``
    (``evidence``'s prefix, less one per capture so far) reaches
    ``need``; False when ``i_false < b``.  It also stops at the first
    bin past its query budget (``b >= limit``), where the scalar model
    raises before drawing.  So every draw, and every capture-probability
    evaluation, is one the scalar path makes.

    Returns:
        ``winners`` (int32, shaped like ``counts``): the winner's index
        among the positives of each collision bin that captured, ``-1``
        for every other bin.
    """
    rows, n_bins = counts.shape
    winners = np.full((rows, n_bins), -1, dtype=np.int32)
    # Collision bins as flat indices, row-major: row r's j-th collision
    # is flat[first[r] + j].
    flat = np.flatnonzero(counts >= 2)
    if not flat.size:
        return winners
    assert replay is not None, "collisions need a model stream (x >= 2)"
    before = (np.cumsum(evidence, axis=1) - evidence).ravel()
    n_coll = np.bincount(flat // n_bins, minlength=rows)
    first = np.cumsum(n_coll) - n_coll
    caps = np.zeros(rows, dtype=np.int64)
    drawing = np.flatnonzero(n_coll)
    # A row draws at most min(collisions, need) times this round (each
    # queried collision adds at least 1 evidence), one output per
    # random() and at most one pull per capture: reserve that much up
    # front so the replay grows once per round, not once per draw.
    most = np.minimum(n_coll[drawing], need[drawing])
    replay.reserve(
        streams[drawing], replay.used[streams[drawing]] + most + (most + 1) // 2
    )
    j = 0
    while drawing.size:
        at = flat[first[drawing] + j]
        b = at - drawing * n_bins
        go = (before.take(at) - caps[drawing] < need[drawing]) & (b <= i_false[drawing])
        if limit is not None:
            go &= b < limit[drawing]
        if not go.all():
            drawing, at = drawing[go], at[go]
            if not drawing.size:
                break
        c = counts.ravel().take(at)
        rows_s = streams[drawing]
        won = replay.random(rows_s) < odds(c)
        if won.any():
            winners.ravel()[at[won]] = replay.integers(rows_s[won], c[won])
            caps[drawing[won]] += 1
        j += 1
        drawing = drawing[n_coll[drawing] > j]
    return winners


def _run_one_capture(
    n: int,
    threshold: int,
    mask: np.ndarray,
    model_rng: np.random.Generator,
    bins_rng: np.random.Generator,
    schedule: Schedule,
    p_cap: Callable[[int], float],
    max_queries: Optional[int],
    algorithm: str,
    tally: Optional[_CellTally],
) -> Tuple[bool, int]:
    """One 2+ trial: vectorized counts, in-order capture draws.

    The capture draws are sequential by contract (bin order on the model
    stream), so the per-bin loop survives -- but it runs over precomputed
    count/positive-position arrays instead of set operations and model
    dispatch, and silent/lone-positive bins consume no randomness.
    """
    if threshold == 0:
        return True, 0
    if n < threshold:
        return False, 0
    cand = np.arange(n, dtype=np.int64)
    confirmed = 0
    total = 0
    for round_index in range(_MAX_ROUNDS):
        bins_requested = schedule(round_index)
        if bins_requested < 1:
            raise RuntimeError(f"{algorithm}: bin policy returned {bins_requested}")
        m = cand.size
        perm, starts, sizes, counts, hits = _round_layout(
            cand, bins_requested, bins_rng, mask
        )
        effective = sizes.size
        # Positions (into the permuted layout) of positive slots; bin b's
        # positives, in membership order, are pos_at[pos_cum[b]:pos_cum[b+1]].
        pos_at = np.flatnonzero(hits)
        pos_cum = np.concatenate(([0], np.cumsum(counts)))
        keep = np.ones(m, dtype=bool)
        alive = m
        evidence = 0
        decision: Optional[bool] = None
        queried = 0
        n_silent = 0
        n_capture = 0
        for b in range(effective):
            total += 1
            queried += 1
            if max_queries is not None and total > max_queries:
                raise QueryBudgetExceeded(
                    f"query budget of {max_queries} exceeded"
                )
            c = int(counts[b])
            if c == 0:
                n_silent += 1
                alive -= int(sizes[b])
                keep[perm[starts[b]:starts[b + 1]]] = False
            elif c == 1:
                # A lone reply is always captured; no draw.
                n_capture += 1
                confirmed += 1
                alive -= 1
                keep[perm[pos_at[pos_cum[b]]]] = False
            else:
                prob = p_cap(c)
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(
                        f"capture probability out of range: {prob}"
                    )
                if model_rng.random() < prob:
                    winner = int(model_rng.integers(c))
                    n_capture += 1
                    confirmed += 1
                    alive -= 1
                    keep[perm[pos_at[pos_cum[b] + winner]]] = False
                else:
                    evidence += 2
            if confirmed + evidence >= threshold:
                decision = True
                break
            if confirmed + alive < threshold:
                decision = False
                break
        if tally is not None:
            tally.record(sizes[:queried], n_silent, n_capture)
        if decision is not None:
            return decision, total
        cand = cand[keep]
    raise RuntimeError(
        f"{algorithm}: round safety valve ({_MAX_ROUNDS}) tripped"
    )


def run_probes(
    batch: QueryBatch,
    *,
    repeats: int,
    inclusion: float,
    midpoint: float,
) -> BatchDecision:
    """Execute a cell of non-adaptive probabilistic trials (Sec VI).

    Each run draws its population, then one ``(repeats, n)`` inclusion
    matrix on the bins stream -- bit-identical to
    :func:`repro.group_testing.binning.sample_bins` -- and decides by
    comparing the non-empty probe count against ``midpoint``.  The model
    stream is untouched (1+/k+ probes draw no model randomness), exactly
    as in the scalar path.

    Raises:
        UnsupportedBatch: For capture-model (2+) probes or
            detection-failure hooks, which draw on the model stream, and
            for model factories that are not a :class:`ModelSpec`.
    """
    spec = _model_spec(batch)
    if spec.detection_failure is not None:
        raise UnsupportedBatch("detection-failure hooks are not vectorized")
    if spec.kind not in ("1+", "k+"):
        raise UnsupportedBatch(
            f"model kind {spec.kind!r} draws capture randomness per probe"
        )
    if spec.kind == "k+" and spec.k < 1:
        raise ValueError(f"k must be >= 1, got {spec.k}")
    if batch.threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {batch.threshold}")
    if not 0.0 <= inclusion <= 1.0:
        raise ValueError(
            f"inclusion probability must be in [0,1], got {inclusion}"
        )
    if spec.max_queries is not None and repeats > spec.max_queries:
        raise QueryBudgetExceeded(
            f"query budget of {spec.max_queries} exceeded"
        )
    tally = _CellTally() if _OBS.enabled else None
    decisions = np.zeros(batch.runs, dtype=bool)
    queries = np.full(batch.runs, repeats, dtype=np.int64)
    names = ("pop", "bins")
    runs = _run_streams(batch, fast_states(batch, names), names)
    xs = batch.xs(0, batch.runs).tolist()
    for i, (pop_rng, bins_rng) in enumerate(runs):
        mask = _draw_population(batch.n, xs[i], pop_rng)
        if batch.n == 0 or inclusion == 0.0:
            # sample_bins short-circuits without a draw: all probes empty.
            sizes = np.zeros(repeats, dtype=np.int64)
            nonempty = 0
        else:
            draws = bins_rng.random((repeats, batch.n)) < inclusion
            sizes = draws.sum(axis=1)
            nonempty = int((draws[:, mask].sum(axis=1) > 0).sum())
        decisions[i] = nonempty > midpoint
        if tally is not None:
            tally.record(sizes, repeats - nonempty, 0)
    if tally is not None:
        tally.flush()
    return BatchDecision(decisions=decisions, queries=queries, exact=False)
