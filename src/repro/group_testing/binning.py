"""Partitioning a candidate set into bins.

The 2tBins family re-partitions the surviving candidates *randomly* into
equal-sized bins at the start of every round.  Bin sizes differ by at most
one.  When the requested bin count exceeds the candidate count, the
excess bins receive zero members; per Sec IV-C such bins are skipped free
of charge by the algorithms, so partition functions may simply return
fewer than ``bins`` groups.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def partition_random(
    candidates: Sequence[int],
    bins: int,
    rng: np.random.Generator,
) -> List[List[int]]:
    """Randomly partition ``candidates`` into up to ``bins`` balanced bins.

    A uniformly random permutation is sliced into contiguous chunks whose
    sizes differ by at most one, which is equivalent to dealing nodes
    round-robin in random order.

    Args:
        candidates: Node ids to distribute (need not be sorted).
        bins: Requested number of bins (``>= 1``).
        rng: Randomness source.

    Returns:
        A list of non-empty bins (member-id lists).  The number of returned
        bins is ``min(bins, len(candidates))``; zero-member bins are never
        materialised.

    Raises:
        ValueError: If ``bins < 1``.
    """
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    n = len(candidates)
    if n == 0:
        return []
    order = rng.permutation(n)
    arr = np.asarray(candidates, dtype=np.int64)[order]
    effective = min(bins, n)
    # Split into `effective` chunks with sizes differing by at most one.
    base, extra = divmod(n, effective)
    out: List[List[int]] = []
    start = 0
    for i in range(effective):
        size = base + (1 if i < extra else 0)
        out.append(arr[start : start + size].tolist())
        start += size
    return out


def sample_bin(
    candidates: Sequence[int],
    inclusion_prob: float,
    rng: np.random.Generator,
) -> List[int]:
    """Sample a single bin by independent inclusion (Sec V-D / VI probes).

    Each candidate joins the bin independently with probability
    ``inclusion_prob``.  Used by Probabilistic ABNS (``2/t``) and the
    bimodal probabilistic model (``1/b``).

    Args:
        candidates: Node ids eligible for the probe.
        inclusion_prob: Per-node inclusion probability in ``[0, 1]``.
        rng: Randomness source.

    Returns:
        The sampled member list (possibly empty).

    Raises:
        ValueError: If ``inclusion_prob`` is outside ``[0, 1]``.
    """
    if not 0.0 <= inclusion_prob <= 1.0:
        raise ValueError(
            f"inclusion probability must be in [0,1], got {inclusion_prob}"
        )
    if len(candidates) == 0 or inclusion_prob == 0.0:
        return []
    draws = rng.random(len(candidates)) < inclusion_prob
    arr = np.asarray(candidates, dtype=np.int64)
    return arr[draws].tolist()


def sample_bins(
    candidates: Sequence[int],
    inclusion_prob: float,
    count: int,
    rng: np.random.Generator,
) -> List[List[int]]:
    """Sample ``count`` independent inclusion bins in one vectorized draw.

    Bit-identical to ``count`` successive :func:`sample_bin` calls on the
    same generator (numpy fills a 2-D ``random`` draw in C order, i.e.
    row-by-row), but one matrix comparison replaces the per-probe Python
    loop.  Used by the probabilistic scheme's repeated probes.

    Args:
        candidates: Node ids eligible for the probes.
        inclusion_prob: Per-node inclusion probability in ``[0, 1]``.
        count: Number of bins to sample (``>= 0``).
        rng: Randomness source.

    Returns:
        ``count`` member lists (each possibly empty).

    Raises:
        ValueError: If ``inclusion_prob`` is outside ``[0, 1]`` or
            ``count`` is negative.
    """
    if not 0.0 <= inclusion_prob <= 1.0:
        raise ValueError(
            f"inclusion probability must be in [0,1], got {inclusion_prob}"
        )
    if count < 0:
        raise ValueError(f"bin count must be >= 0, got {count}")
    if len(candidates) == 0 or inclusion_prob == 0.0:
        return [[] for _ in range(count)]
    draws = rng.random((count, len(candidates))) < inclusion_prob
    arr = np.asarray(candidates, dtype=np.int64)
    return [arr[row].tolist() for row in draws]
