"""The metrics registry: counters, histograms, and monotonic timers.

Design constraints (see DESIGN.md "Observability"):

* **Near-zero disabled cost.**  Every instrument holds a reference to its
  owning registry and checks one boolean before doing any work, so a
  disabled instrument costs one attribute load and a branch per call --
  the same contract as :class:`repro.sim.trace.Tracer`.  Instruments are
  created once at module import (name lookups never happen on hot paths).
* **Process-safety by merge, not by sharing.**  Each process owns its own
  registry; nothing is shared across process boundaries.  A worker
  serialises its registry into an immutable, picklable
  :class:`MetricsSnapshot` which travels back with the shard results and
  is summed into the parent's registry via :meth:`MetricsRegistry.absorb`.
  Counter merges are exact integer sums; histogram merges sum per-bucket
  counts (bucket edges are fixed at creation and must match).
* **Bit-exactness neutrality.**  No instrument draws randomness or
  perturbs any RNG stream: enabling metrics can never change a result.

Timers read the host's monotonic clock (``time.perf_counter``), which is
exactly what they are for -- profiling real elapsed time of the harness,
never simulated time.  This module therefore lives *outside* the
``tcast-lint`` TCL002 simulation scope.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from types import TracebackType
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Type


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable state of one histogram.

    Attributes:
        edges: The fixed, sorted bucket edges.  Bucket ``i`` counts values
            ``<= edges[i]`` (and above the previous edge); one overflow
            bucket beyond the last edge makes ``len(counts) ==
            len(edges) + 1``.
        counts: Per-bucket observation counts.
        total: Total observations (sum of ``counts``).
        sum: Sum of all observed values.
        min: Smallest observed value (``None`` when empty).
        max: Largest observed value (``None`` when empty).
    """

    edges: Tuple[float, ...]
    counts: Tuple[int, ...]
    total: int
    sum: float
    min: Optional[float]
    max: Optional[float]

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Exact sum of two histogram states.

        Raises:
            ValueError: If the bucket edges differ (merging would be
                meaningless).
        """
        if self.edges != other.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}"
            )
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        return HistogramSnapshot(
            edges=self.edges,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            sum=self.sum + other.sum,
            min=min(mins) if mins else None,
            max=max(maxs) if maxs else None,
        )


@dataclass(frozen=True)
class TimerSnapshot:
    """Immutable state of one timer.

    Attributes:
        calls: Completed timing spans.
        total_seconds: Summed span durations (wall clock).
        max_seconds: Longest single span (0.0 when no calls).
    """

    calls: int
    total_seconds: float
    max_seconds: float

    def merge(self, other: "TimerSnapshot") -> "TimerSnapshot":
        """Sum of two timer states (max of the maxima)."""
        return TimerSnapshot(
            calls=self.calls + other.calls,
            total_seconds=self.total_seconds + other.total_seconds,
            max_seconds=max(self.max_seconds, other.max_seconds),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, picklable view of a registry's instruments.

    Snapshots are what crosses process boundaries: a sweep worker returns
    one alongside its shard costs, and the parent merges them.  All merge
    operations are exact -- counters are integer sums, histogram buckets
    are integer sums -- so merging the per-worker snapshots of a parallel
    sweep reproduces the serial run's totals bit for bit.

    Attributes:
        counters: Counter name -> value.
        histograms: Histogram name -> state.
        timers: Timer name -> state.
    """

    counters: Mapping[str, int] = field(default_factory=dict)
    histograms: Mapping[str, HistogramSnapshot] = field(default_factory=dict)
    timers: Mapping[str, TimerSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Exact element-wise sum of two snapshots."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        histograms = dict(self.histograms)
        for name, hist in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = hist if mine is None else mine.merge(hist)
        timers = dict(self.timers)
        for name, timer in other.timers.items():
            mine_t = timers.get(name)
            timers[name] = timer if mine_t is None else mine_t.merge(timer)
        return MetricsSnapshot(
            counters=counters, histograms=histograms, timers=timers
        )

    @staticmethod
    def merge_all(snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Fold :meth:`merge` over any number of snapshots."""
        merged = MetricsSnapshot()
        for snap in snapshots:
            merged = merged.merge(snap)
        return merged

    def counter(self, name: str) -> int:
        """A counter's value (0 when the counter never fired)."""
        return int(self.counters.get(name, 0))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable rendering (see :meth:`from_dict`)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                k: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "total": h.total,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                }
                for k, h in sorted(self.histograms.items())
            },
            "timers": {
                k: {
                    "calls": t.calls,
                    "total_seconds": t.total_seconds,
                    "max_seconds": t.max_seconds,
                }
                for k, t in sorted(self.timers.items())
            },
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_dict`.

        Raises:
            KeyError: On a malformed payload.
            TypeError: A section that is not a mapping.
        """
        counters_raw = data.get("counters", {})
        hists_raw = data.get("histograms", {})
        timers_raw = data.get("timers", {})
        if not (
            isinstance(counters_raw, Mapping)
            and isinstance(hists_raw, Mapping)
            and isinstance(timers_raw, Mapping)
        ):
            raise TypeError("malformed snapshot: a section is not a mapping")
        return MetricsSnapshot(
            counters={k: int(v) for k, v in counters_raw.items()},
            histograms={
                k: HistogramSnapshot(
                    edges=tuple(float(e) for e in h["edges"]),
                    counts=tuple(int(c) for c in h["counts"]),
                    total=int(h["total"]),
                    sum=float(h["sum"]),
                    min=None if h["min"] is None else float(h["min"]),
                    max=None if h["max"] is None else float(h["max"]),
                )
                for k, h in hists_raw.items()
            },
            timers={
                k: TimerSnapshot(
                    calls=int(t["calls"]),
                    total_seconds=float(t["total_seconds"]),
                    max_seconds=float(t["max_seconds"]),
                )
                for k, t in timers_raw.items()
            },
        )

    def to_json(self, *, indent: int = 2) -> str:
        """The :meth:`to_dict` payload as pretty-printed JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class Counter:
    """A monotonically increasing integer counter.

    Create via :meth:`MetricsRegistry.counter`; hold the returned object
    at module level so hot paths pay no name lookup.
    """

    __slots__ = ("name", "_registry", "value")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (no-op while the registry is disabled)."""
        if self._registry.enabled:
            self.value += n

    def _reset(self) -> None:
        self.value = 0


class Histogram:
    """A fixed-bucket histogram of numeric observations.

    Bucket ``i`` counts observations ``<= edges[i]`` (above the previous
    edge); one extra overflow bucket catches everything beyond the last
    edge.  Edges are fixed at creation so snapshots from different
    processes merge by exact per-bucket summation.
    """

    __slots__ = (
        "name", "_registry", "edges", "counts", "total", "sum", "min", "max"
    )

    def __init__(
        self,
        name: str,
        edges: Sequence[float],
        registry: "MetricsRegistry",
    ) -> None:
        if not edges:
            raise ValueError(f"histogram {name!r}: edges must be non-empty")
        ordered = tuple(float(e) for e in edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(
                f"histogram {name!r}: edges must be strictly increasing, "
                f"got {ordered}"
            )
        self.name = name
        self._registry = registry
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation (no-op while the registry is disabled)."""
        if not self._registry.enabled:
            return
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            edges=self.edges,
            counts=tuple(self.counts),
            total=self.total,
            sum=self.sum,
            min=self.min,
            max=self.max,
        )

    def _reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def _absorb(self, snap: HistogramSnapshot) -> None:
        if snap.edges != self.edges:
            raise ValueError(
                f"histogram {self.name!r}: cannot absorb snapshot with "
                f"edges {snap.edges} into instrument with {self.edges}"
            )
        for i, count in enumerate(snap.counts):
            self.counts[i] += count
        self.total += snap.total
        self.sum += snap.sum
        if snap.min is not None and (self.min is None or snap.min < self.min):
            self.min = snap.min
        if snap.max is not None and (self.max is None or snap.max > self.max):
            self.max = snap.max


class _Span:
    """One in-flight timing span (the context manager a timer hands out)."""

    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: "Timer") -> None:
        self._timer = timer
        self._t0: Optional[float] = None

    def __enter__(self) -> "_Span":
        """Start the span (reads the clock only when metrics are on).

        Always re-arms the start mark, so re-entering a span object
        begins a fresh measurement and a disabled re-entry can never
        replay a stale start time.
        """
        self._t0 = (
            time.perf_counter() if self._timer._registry.enabled else None
        )
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        """Stop the span and record its duration exactly once.

        A span that unwinds via an exception still records (timed work
        happened either way); clearing the start mark afterwards makes a
        stray second ``__exit__`` a no-op instead of a double-record,
        while a full re-entry through :meth:`__enter__` starts a fresh
        measurement.
        """
        if self._t0 is not None:
            self._timer.add_seconds(time.perf_counter() - self._t0)
            self._t0 = None


class Timer:
    """Accumulates wall-clock durations of code spans.

    Use ``with timer.time(): ...`` around the span, or
    :meth:`add_seconds` for durations measured externally.  Reads the
    host's monotonic clock -- this is harness profiling, never simulated
    time.
    """

    __slots__ = ("name", "_registry", "calls", "total_seconds", "max_seconds")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self.calls = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def time(self) -> _Span:
        """A context manager timing the enclosed block."""
        return _Span(self)

    def add_seconds(self, seconds: float) -> None:
        """Record one externally measured span (no-op while disabled)."""
        if not self._registry.enabled:
            return
        self.calls += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def _snapshot(self) -> TimerSnapshot:
        return TimerSnapshot(
            calls=self.calls,
            total_seconds=self.total_seconds,
            max_seconds=self.max_seconds,
        )

    def _reset(self) -> None:
        self.calls = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def _absorb(self, snap: TimerSnapshot) -> None:
        self.calls += snap.calls
        self.total_seconds += snap.total_seconds
        if snap.max_seconds > self.max_seconds:
            self.max_seconds = snap.max_seconds


class MetricsRegistry:
    """A per-process home for named instruments.

    Instruments are created lazily and cached by name, so a module-level
    ``REGISTRY.counter("model.queries")`` executed at import time returns
    the same object in every importer.  The registry starts **disabled**:
    all instruments are inert until :meth:`enable` (the ``--metrics``
    CLI flag, a worker task's ``collect_metrics`` bit, or a test) flips
    the shared flag.

    Registries are process-local by design; see :class:`MetricsSnapshot`
    for how state crosses process boundaries.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    # -- instrument creation ------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name, self)
        return inst

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create the histogram called ``name``.

        Raises:
            ValueError: If ``name`` exists with different bucket edges.
        """
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, edges, self)
        elif inst.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already exists with edges "
                f"{inst.edges}, requested {tuple(edges)}"
            )
        return inst

    def timer(self, name: str) -> Timer:
        """Get or create the timer called ``name``."""
        inst = self._timers.get(name)
        if inst is None:
            inst = self._timers[name] = Timer(name, self)
        return inst

    # -- lifecycle ----------------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        """Flip the shared collection flag all instruments check."""
        self.enabled = bool(enabled)

    def enable(self) -> None:
        """Start collecting (instruments keep any prior state)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting (instrument state is retained, not cleared)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument (the enabled flag is untouched)."""
        for counter in self._counters.values():
            counter._reset()
        for hist in self._histograms.values():
            hist._reset()
        for timer in self._timers.values():
            timer._reset()

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of the current instrument state.

        Instruments that never fired are omitted, so snapshots stay
        small on the wire.
        """
        return MetricsSnapshot(
            counters={
                name: c.value
                for name, c in self._counters.items()
                if c.value
            },
            histograms={
                name: h._snapshot()
                for name, h in self._histograms.items()
                if h.total
            },
            timers={
                name: t._snapshot()
                for name, t in self._timers.items()
                if t.calls
            },
        )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Sum a snapshot (e.g. from a worker process) into this registry.

        Absorption is merge machinery, not a hot path: it applies even
        while collection is disabled, so a parent can aggregate worker
        snapshots without racing its own enabled flag.

        Raises:
            ValueError: If a histogram's edges disagree with the local
                instrument of the same name.
        """
        for name, value in snapshot.counters.items():
            self.counter(name).value += value
        for name, hist in snapshot.histograms.items():
            self.histogram(name, hist.edges)._absorb(hist)
        for name, timer in snapshot.timers.items():
            self.timer(name)._absorb(timer)


#: The process-wide default registry every instrumented module shares.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """This process's shared default registry."""
    return _DEFAULT


def metrics_enabled() -> bool:
    """Whether the default registry is currently collecting."""
    return _DEFAULT.enabled


def enable_metrics() -> None:
    """Start collection on the default registry."""
    _DEFAULT.enable()


def disable_metrics() -> None:
    """Stop collection on the default registry."""
    _DEFAULT.disable()


def reset_metrics() -> None:
    """Zero every instrument on the default registry."""
    _DEFAULT.reset()


def snapshot_metrics() -> MetricsSnapshot:
    """Snapshot the default registry."""
    return _DEFAULT.snapshot()
