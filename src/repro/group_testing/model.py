"""Abstract RCD query models: the 1+ and 2+ collision semantics.

These are the counting models behind the paper's simulation figures.  A
query on a bin resolves instantly against the hidden :class:`Population`;
the model charges one unit of cost per query and returns a
:class:`BinObservation` that encodes *exactly* the information the
corresponding radio primitive would expose:

* **1+ model** (pollcast/backcast): silence, or activity meaning ">= 1
  positive".  No message is decoded.
* **2+ model**: the radio may lock onto one reply (the *capture effect*)
  and decode its sender id -- in which case that node is a confirmed
  positive but nothing is learned about the others -- or observe an
  undecodable collision, which proves ">= 2 positives".

Both models accept an optional *detection-failure* hook so failure
injection tests (and the abstract replication of the testbed's radio
irregularities) can make a non-empty bin read silent with a
responder-count-dependent probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from repro.group_testing.population import Population
from repro.obs import get_registry

#: Instruments created once at import so the per-query path pays no name
#: lookup; every call is inert until the registry is enabled (--metrics).
#: No RNG stream is touched here: metrics cannot change results.
_OBS = get_registry()
_M_QUERIES = _OBS.counter("model.queries")
_M_SILENT = _OBS.counter("model.verdict.silent")
_M_ACTIVITY = _OBS.counter("model.verdict.activity")
_M_CAPTURE = _OBS.counter("model.verdict.capture")
_M_BIN_SIZE = _OBS.histogram(
    "model.bin_size", edges=(1, 2, 4, 8, 16, 32, 64, 128, 256)
)


class QueryBudgetExceeded(RuntimeError):
    """Raised when a model's query budget is exhausted.

    The budget is a guard against non-terminating algorithm bugs; exact
    algorithms are bounded by :func:`repro.analytic.bounds.upper_bound_queries`
    and should never trip it.
    """


class ObservationKind(Enum):
    """What the initiator's radio observed for one bin query."""

    SILENT = "silent"
    """No channel activity: the bin holds no (detected) positive node."""

    ACTIVITY = "activity"
    """Undecodable activity: >= 1 positive (1+ model) or >= 2 (2+ model)."""

    CAPTURE = "capture"
    """One reply decoded: its sender is a confirmed positive (2+ only)."""


@dataclass(frozen=True)
class BinObservation:
    """Result of querying one bin.

    Attributes:
        kind: The observation class.
        min_positives: A *sound* lower bound on the number of positive
            nodes in the queried bin implied by the observation (0 for
            silence; 1 for 1+ activity or a capture; 2 for a 2+ collision).
        captured_node: Decoded sender id for ``CAPTURE`` observations,
            else ``None``.
    """

    kind: ObservationKind
    min_positives: int
    captured_node: Optional[int] = None

    @property
    def silent(self) -> bool:
        """Whether the bin read as silent."""
        return self.kind is ObservationKind.SILENT


class QueryModel(Protocol):
    """What an algorithm may do: query a bin, and read its own cost.

    Implementations: :class:`OnePlusModel`, :class:`TwoPlusModel`, and the
    packet-level :class:`repro.motes.testbed.TestbedQueryAdapter`.
    """

    @property
    def queries_used(self) -> int:
        """Total queries charged so far."""
        ...

    @property
    def population_size(self) -> int:
        """Number of participant nodes (the paper's ``N``)."""
        ...

    def query(self, members: Sequence[int]) -> BinObservation:
        """Query one bin; charges one cost unit.

        Callers are responsible for not querying bins they *know* to be
        member-less (those are free per Sec IV-C); querying a sampled bin
        whose membership is unknown to the initiator is charged normally.
        """
        ...


#: A model factory: given a run's population and a seeded generator,
#: return the query model the algorithm will face.  :class:`ModelSpec` is
#: the picklable, kernel-replayable implementation.
ModelFactory = Callable[[Population, np.random.Generator], QueryModel]


def default_capture_probability(k: int) -> float:
    """Default capture model: ``P(capture | k simultaneous replies) = 1/k``.

    A single reply is always decoded; with more repliers the chance that
    one signal dominates decays inversely (DESIGN.md choice; the paper does
    not pin a model beyond "decreasing probability as the number of
    messages increase").
    """
    if k < 1:
        raise ValueError(f"responder count must be >= 1, got {k}")
    return 1.0 / k


class _BaseModel:
    """Shared cost-ledger plumbing for the abstract models.

    :meth:`query` answers one bin; :meth:`query_batch` answers a batch of
    bins in order (the non-adaptive probabilistic scheme's probe set,
    which is fixed up front).  Both go through the same per-bin verdict
    path.
    """

    #: Whether the subclass's observation logic needs the positive member
    #: ids (not just the count) -- true only for the 2+ capture draw.
    _wants_positive_members = False

    def __init__(
        self,
        population: Population,
        rng: np.random.Generator,
        *,
        max_queries: Optional[int] = None,
        detection_failure: Optional[Callable[[int], float]] = None,
    ) -> None:
        self._population = population
        self._rng = rng
        self._queries = 0
        self._max_queries = max_queries
        self._detection_failure = detection_failure

    @property
    def population(self) -> Population:
        """The hidden ground truth (for harness/tests, not algorithms)."""
        return self._population

    @property
    def population_size(self) -> int:
        """Number of participant nodes."""
        return self._population.size

    @property
    def queries_used(self) -> int:
        """Total queries charged so far."""
        return self._queries

    def _charge(self) -> None:
        self._queries += 1
        if self._max_queries is not None and self._queries > self._max_queries:
            raise QueryBudgetExceeded(
                f"query budget of {self._max_queries} exceeded"
            )

    def _record(
        self, members: Sequence[int], obs: BinObservation
    ) -> BinObservation:
        """Count one finished query into the metrics layer (pass-through).

        One guard check per query while metrics are disabled; no RNG use
        either way, so observations are returned untouched.
        """
        if _OBS.enabled:
            _M_QUERIES.inc()
            _M_BIN_SIZE.observe(len(members))
            if obs.kind is ObservationKind.SILENT:
                _M_SILENT.inc()
            elif obs.kind is ObservationKind.CAPTURE:
                _M_CAPTURE.inc()
            else:
                _M_ACTIVITY.inc()
        return obs

    def _detected(self, npos: int) -> bool:
        """Whether a bin with ``npos`` positives produces visible activity."""
        if npos == 0:
            return False
        if self._detection_failure is None:
            return True
        miss = self._detection_failure(npos)
        if not 0.0 <= miss <= 1.0:
            raise ValueError(f"detection-failure hook returned {miss}")
        return bool(self._rng.random() >= miss)

    def query(self, members: Sequence[int]) -> BinObservation:
        """Query one bin; charges one cost unit.

        This is the single scalar verdict path shared by every model (and
        mirrored by :mod:`repro.group_testing.vectorized`): charge, count
        positives, then hand the count -- and, for capture-capable
        models, the positive member ids in membership order -- to the
        subclass's :meth:`_observe`.
        """
        return self._answer(members)

    def query_batch(
        self, bins: Sequence[Sequence[int]]
    ) -> List[BinObservation]:
        """Query a batch of bins in order; charges one cost unit per bin.

        The result, RNG consumption included, is identical to looping
        over :meth:`query`.
        """
        return [self._answer(members) for members in bins]

    def _answer(self, members: Sequence[int]) -> BinObservation:
        """The verdict path behind :meth:`query` and :meth:`query_batch`."""
        self._charge()
        pos: Optional[Sequence[int]]
        if self._wants_positive_members:
            pos = [m for m in members if self._population.is_positive(m)]
            npos = len(pos)
        else:
            pos = None
            npos = self._population.count_positives(members)
        return self._record(members, self._observe(members, npos, pos))

    def _observe(
        self,
        members: Sequence[int],
        npos: int,
        pos: Optional[Sequence[int]],
    ) -> BinObservation:
        """Produce the observation for a bin with ``npos`` positives.

        ``pos`` carries the positive member ids in membership order when
        :attr:`_wants_positive_members` is set (2+ capture), else ``None``.
        """
        raise NotImplementedError


class OnePlusModel(_BaseModel):
    """The 1+ collision model: silence vs undecodable activity.

    Implements the information structure of pollcast (CCA-based RCD) and
    backcast (superposed-HACK RCD): an activity observation proves only
    ">= 1 positive in the bin".

    Args:
        population: Hidden ground truth.
        rng: Randomness (used only by the optional failure hook).
        max_queries: Optional hard budget (bug guard).
        detection_failure: Optional ``k -> miss probability`` hook making a
            bin with ``k`` positives read silent; ``None`` means an ideal
            radio.
    """

    def _observe(
        self,
        members: Sequence[int],
        npos: int,
        pos: Optional[Sequence[int]],
    ) -> BinObservation:
        if self._detected(npos):
            return BinObservation(kind=ObservationKind.ACTIVITY, min_positives=1)
        return BinObservation(kind=ObservationKind.SILENT, min_positives=0)


class KPlusModel(_BaseModel):
    """The generalised ``k+`` channel of the companion theory paper
    (Aspnes et al., "k+ decision trees").

    A query reveals ``min(count, k)``: the *exact* number of positives in
    the bin when it is below ``k``, and only ">= k" otherwise.  ``k = 1``
    collapses to the 1+ model; larger ``k`` strengthens the per-bin
    evidence, which the round executor exploits automatically (its
    termination check sums the sound per-bin lower bounds).  Unlike the
    2+ model there is no capture: no identities are ever revealed, so no
    individual node can be excluded.

    Args:
        population: Hidden ground truth.
        rng: Randomness (used only by the optional failure hook).
        k: Count-resolution of the channel (``>= 1``).
        max_queries: Optional hard budget.
        detection_failure: Optional miss-probability hook.
    """

    def __init__(
        self,
        population: Population,
        rng: np.random.Generator,
        *,
        k: int,
        max_queries: Optional[int] = None,
        detection_failure: Optional[Callable[[int], float]] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__(
            population,
            rng,
            max_queries=max_queries,
            detection_failure=detection_failure,
        )
        self._k = k

    @property
    def k(self) -> int:
        """The channel's count resolution."""
        return self._k

    def _observe(
        self,
        members: Sequence[int],
        npos: int,
        pos: Optional[Sequence[int]],
    ) -> BinObservation:
        if not self._detected(npos):
            return BinObservation(kind=ObservationKind.SILENT, min_positives=0)
        return BinObservation(
            kind=ObservationKind.ACTIVITY,
            min_positives=min(npos, self._k),
        )


class TwoPlusModel(_BaseModel):
    """The 2+ collision model: capture-effect decoding of one reply.

    A lone reply is always decoded.  With ``k >= 2`` simultaneous replies
    one of them is decoded with probability ``capture_probability(k)``
    (default ``1/k``); otherwise the initiator observes an undecodable
    collision, which certifies ">= 2 positives".  Because of the capture
    effect a decoded reply never certifies that it was the *only* reply,
    so only the decoded sender itself may be excluded from future rounds
    (Sec III-A).

    The ``detection_failure`` hook gates *detection of the aggregate
    reply*, exactly as in :class:`OnePlusModel`: it receives the bin's
    true positive count ``k`` and a draw below ``miss(k)`` makes the
    whole bin read silent.  In particular a lone reply (``k == 1``) --
    which an ideal 2+ radio would always capture and decode -- is lost
    with probability ``miss(1)``, and a failed detection suppresses the
    capture/collision branch entirely.  The hook is only consulted for
    ``k >= 1``: an empty bin is silent unconditionally, so the hook can
    never fabricate activity (false positives stay impossible).

    Args:
        population: Hidden ground truth.
        rng: Randomness for capture draws and sender selection.
        capture_probability: ``k -> P(decode one reply)`` for ``k >= 2``.
        max_queries: Optional hard budget.
        detection_failure: Optional miss-probability hook (as in
            :class:`OnePlusModel`).
    """

    def __init__(
        self,
        population: Population,
        rng: np.random.Generator,
        *,
        capture_probability: Callable[[int], float] = default_capture_probability,
        max_queries: Optional[int] = None,
        detection_failure: Optional[Callable[[int], float]] = None,
    ) -> None:
        super().__init__(
            population,
            rng,
            max_queries=max_queries,
            detection_failure=detection_failure,
        )
        self._capture_probability = capture_probability

    _wants_positive_members = True

    def _observe(
        self,
        members: Sequence[int],
        npos: int,
        pos: Optional[Sequence[int]],
    ) -> BinObservation:
        if not self._detected(npos):
            return BinObservation(kind=ObservationKind.SILENT, min_positives=0)
        assert pos is not None
        if npos == 1:
            return BinObservation(
                kind=ObservationKind.CAPTURE,
                min_positives=1,
                captured_node=int(pos[0]),
            )
        p_cap = self._capture_probability(npos)
        if not 0.0 <= p_cap <= 1.0:
            raise ValueError(f"capture probability out of range: {p_cap}")
        if self._rng.random() < p_cap:
            winner = int(pos[int(self._rng.integers(npos))])
            return BinObservation(
                kind=ObservationKind.CAPTURE,
                min_positives=1,
                captured_node=winner,
            )
        return BinObservation(kind=ObservationKind.ACTIVITY, min_positives=2)


@dataclass(frozen=True)
class ModelSpec:
    """A picklable :class:`QueryModel` factory.

    The parallel sweep backend ships work to worker processes, which
    rules out the closures the figure runners used to build models with.
    A ``ModelSpec`` carries the same configuration declaratively: calling
    it with ``(population, rng)`` builds the model, so it drops into
    every ``model_factory`` seam unchanged.  Hook callables
    (``detection_failure``, ``capture_probability``) must themselves be
    picklable for the parallel path -- module-level functions and bound
    methods of picklable objects (e.g.
    ``HackMissModel(...).miss_probability``) both qualify.

    Attributes:
        kind: Collision semantics: ``"1+"``, ``"2+"`` or ``"k+"``.
        max_queries: Optional hard query budget.
        k: Count resolution for ``"k+"`` (ignored otherwise).
        detection_failure: Optional miss-probability hook.
        capture_probability: Capture model override for ``"2+"``
            (``None`` = the :func:`default_capture_probability`).
    """

    kind: str
    max_queries: Optional[int] = None
    k: int = 1
    detection_failure: Optional[Callable[[int], float]] = None
    capture_probability: Optional[Callable[[int], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("1+", "2+", "k+"):
            raise ValueError(
                f"kind must be '1+', '2+' or 'k+', got {self.kind!r}"
            )

    def __call__(
        self, population: Population, rng: np.random.Generator
    ) -> QueryModel:
        """Build the configured model over ``population``."""
        if self.kind == "1+":
            return OnePlusModel(
                population,
                rng,
                max_queries=self.max_queries,
                detection_failure=self.detection_failure,
            )
        if self.kind == "k+":
            return KPlusModel(
                population,
                rng,
                k=self.k,
                max_queries=self.max_queries,
                detection_failure=self.detection_failure,
            )
        return TwoPlusModel(
            population,
            rng,
            capture_probability=(
                self.capture_probability
                if self.capture_probability is not None
                else default_capture_probability
            ),
            max_queries=self.max_queries,
            detection_failure=self.detection_failure,
        )
