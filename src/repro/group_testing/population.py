"""Hidden ground truth for a threshold-querying session.

A :class:`Population` is the set of participant nodes together with the
(hidden) subset of positives.  Query models consult it; algorithms must
not -- tests enforce that algorithms only see :class:`BinObservation`
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Population:
    """Participant nodes with a hidden positive subset.

    Node identifiers are integers ``0..size-1`` (matching mote ids in the
    packet-level substrate).

    Attributes:
        size: Total number of participant nodes (the paper's ``N``).
        positives: Frozen set of positive node ids.
    """

    size: int
    positives: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"population size must be >= 0, got {self.size}")
        if not isinstance(self.positives, frozenset):
            object.__setattr__(self, "positives", frozenset(self.positives))
        bad = [v for v in self.positives if not 0 <= v < self.size]
        if bad:
            raise ValueError(
                f"positive ids {sorted(bad)} outside [0, {self.size})"
            )

    @property
    def x(self) -> int:
        """Number of positive nodes (the paper's ``x``)."""
        return len(self.positives)

    @property
    def node_ids(self) -> range:
        """All participant node ids."""
        return range(self.size)

    def is_positive(self, node: int) -> bool:
        """Whether ``node`` holds the predicate."""
        return node in self.positives

    def count_positives(self, members: Iterable[int]) -> int:
        """Number of positive nodes among ``members``."""
        pos = self.positives
        return sum(1 for m in members if m in pos)

    def truth(self, threshold: int) -> bool:
        """Ground-truth answer to the threshold query ``x >= t``."""
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        return self.x >= threshold

    @classmethod
    def from_count(
        cls,
        size: int,
        x: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "Population":
        """Population with ``x`` uniformly random positive nodes.

        Args:
            size: Total number of nodes.
            x: Number of positives, ``0 <= x <= size``.
            rng: Source of randomness; when ``None``, positives are the
                first ``x`` ids (deterministic; fine for the abstract
                models, whose binning is itself random).
        """
        if not 0 <= x <= size:
            raise ValueError(f"x must be in [0, {size}], got {x}")
        if rng is None:
            chosen: Sequence[int] = range(x)
        else:
            chosen = rng.choice(size, size=x, replace=False) if x else []
        return cls(size=size, positives=frozenset(int(v) for v in chosen))

    @classmethod
    def from_probability(
        cls,
        size: int,
        prob: float,
        rng: np.random.Generator,
    ) -> "Population":
        """Population where each node is independently positive w.p. ``prob``."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0,1], got {prob}")
        draws = rng.random(size) < prob
        return cls(size=size, positives=frozenset(int(i) for i in np.flatnonzero(draws)))
