"""The benchmark's own arithmetic: percentiles, failure fractions, self
times, the layer ledger and the path partition.

Pure functions over plain data, so ``test_perfbench.py`` can check every
sum the benchmark reports without starting a process.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A timing percentile is reported only as "supported" when at least this
#: many samples lie beyond it.
MIN_BEYOND = 10

#: The ledger reconciles when the layers' self times over-cover the traced
#: total by no more than this share of it (``other`` may not go below
#: ``-LEDGER_TOLERANCE * total``).
LEDGER_TOLERANCE = 0.01


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the
    sample at or below it (``q`` in ``(0, 1]``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q`` percentile."""
    return n - max(1, math.ceil(q * n - 1e-9)) if n else 0


def highest_supported(n: int) -> Optional[float]:
    """The highest of p99.9, p99, p95, p90 and p50 with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.5):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def support_note(n: int, q: float) -> str:
    """Empty when ``n`` samples support percentile ``q``, else a warning
    naming the highest percentile they do support."""
    if samples_beyond(n, q) >= MIN_BEYOND:
        return ""
    best = highest_supported(n)
    return (f" (p{q * 100:g} NOT supported by {n} samples; highest supported: "
            f"{'none' if best is None else f'p{best * 100:g}'})")


def fail_frac(failed: int, attempted: int) -> float:
    """Failures over attempts; an empty run counts as a total failure."""
    if attempted < 0 or failed < 0:
        raise ValueError("counts must be non-negative")
    if failed > attempted:
        raise ValueError(f"failed ({failed}) exceeds attempted ({attempted})")
    return 1.0 if attempted == 0 else failed / attempted


def median(values: Iterable[float]) -> float:
    """The sample median."""
    return float(statistics.median(list(values)))


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


#: One span: ``(sid, parent_sid, layer, name, start, end, attrs)``.
Span = Tuple[int, int, str, str, float, float, dict]


def children(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Each span id mapped to its child spans."""
    out: Dict[int, List[Span]] = {}
    for span in spans:
        out.setdefault(span[1], []).append(span)
    return out


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    index = children(spans)
    return {
        sid: (end - start) - covered(((c[4], c[5]) for c in index.get(sid, ())), start, end)
        for sid, _parent, _layer, _name, start, end, _attrs in spans
    }


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for sid, _parent, layer, *_rest in spans:
        out[layer] = out.get(layer, 0.0) + own[sid]
    return out


#: Per-layer metrics of the compute layers, as :func:`compute_layers`
#: returns them (``kernel_queries`` is for reconciliation only).
COMPUTE_METRICS = (
    "vectorized.calls", "vectorized.trials", "vectorized.busy_s", "vectorized.unsupported",
    "fastseed.calls", "fastseed.states_s", "fastseed.choice_s", "fastseed.degraded",
    "rng.streams", "rng.stream_s", "mac.csma.calls", "mac.csma.busy_s", "mac.tdma.calls",
    "mac.tdma.busy_s", "mac.slots", "core.decide.calls", "core.decide.busy_s",
    "kernel_queries",
)


def compute_layers(spans: Sequence[Span]) -> Dict[str, float]:
    """Counts and busy times of the compute layers in one set of spans.

    ``fastseed.degraded`` counts kernel calls with no ``sim.fastseed``
    child; ``core.decide`` counts only outermost scalar decisions;
    ``rng.stream_s`` is the self time of ``sim.rng``; ``kernel_queries``
    is the queries the kernel charged.  Every value is a sum, so the
    results of separate processes or runs add up.
    """
    layer_of = {s[0]: s[2] for s in spans}
    own = self_times(spans)
    fast_parents = {s[1] for s in spans if s[2] == "sim.fastseed"}
    out: Dict[str, float] = dict.fromkeys(COMPUTE_METRICS, 0)
    for sid, parent, layer, name, start, end, attrs in spans:
        busy = end - start
        if layer == "group_testing.vectorized":
            out["vectorized.calls"] += 1
            out["vectorized.trials"] += attrs.get("runs", 0)
            out["vectorized.busy_s"] += busy
            out["vectorized.unsupported"] += attrs.get("error") == "UnsupportedBatch"
            out["fastseed.degraded"] += sid not in fast_parents
            out["kernel_queries"] += attrs.get("queries", 0)
        elif layer == "sim.fastseed":
            out["fastseed.calls"] += 1
            out[f"fastseed.{name}_s"] += busy
        elif layer == "sim.rng":
            out["rng.streams"] += name == "stream"
            out["rng.stream_s"] += own[sid]
        elif layer == "mac":
            out[f"mac.{name}.calls"] += 1
            out[f"mac.{name}.busy_s"] += busy
            out["mac.slots"] += attrs.get("slots", 0)
        elif layer == "core" and layer_of.get(parent) != "core":
            out["core.decide.calls"] += 1
            out["core.decide.busy_s"] += busy
    return out


def ledger(
    layer_seconds: Mapping[str, float], total: float
) -> Tuple[Dict[str, float], bool]:
    """The layer ledger: every layer's self time plus an explicit ``other``.

    Returns ``(lines, ok)``.  ``lines`` always carries ``other`` (the
    traced total not covered by any layer) and sums to ``total``; ``ok``
    says the layers did not over-cover the total by more than
    :data:`LEDGER_TOLERANCE` of it.
    """
    if total <= 0:
        raise ValueError(f"ledger total must be positive, got {total}")
    lines = {layer: float(s) for layer, s in sorted(layer_seconds.items())}
    if "other" in lines:
        raise ValueError("'other' is the ledger's remainder, not a layer")
    lines["other"] = total - sum(lines.values())
    ok = lines["other"] >= -LEDGER_TOLERANCE * total and all(
        v >= 0 for k, v in lines.items() if k != "other"
    )
    return lines, ok


def partition(
    paths: Iterable[str], allowed: Sequence[str], program_total: int
) -> Tuple[Dict[str, int], bool]:
    """Count work units by path; ``ok`` when every unit took exactly one
    allowed path and the counts sum to the program's own total."""
    counts = {name: 0 for name in allowed}
    unknown = 0
    for path in paths:
        if path in counts:
            counts[path] += 1
        else:
            unknown += 1
    return counts, unknown == 0 and sum(counts.values()) == program_total


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median: how far repeated runs
    of one workload spread (``steadiness.py``)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
