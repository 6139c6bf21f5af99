"""High-level convenience API.

For exploratory use the full machinery (population, model, algorithm,
separate RNG streams) is overkill; :func:`threshold_query` wires it all
from a few scalars, and :func:`make_algorithm` gives name-based,
keyword-configured access to the whole algorithm family (the examples,
figure runners and benchmark harness go through it too).

The registry (:data:`REGISTRY`) maps canonical names to
:class:`AlgorithmSpec` entries whose factories take **keyword**
configuration -- ``make_algorithm("abns", p0_multiple=2.0)`` -- instead
of the positional ``lambda x:`` table of earlier versions.  Any exact
algorithm can be wrapped in the reliability layer in the same call:
``make_algorithm("2tbins", reliable="chernoff")``.  For sweeps that ship
work to worker processes, :func:`algorithm_factory` returns a picklable
:class:`RegistryFactory` equivalent to the closures the runners used to
build inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    NoReturn,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.analytic.bimodal import BimodalSpec
from repro.core.abns import Abns, ProbabilisticAbns
from repro.core.base import ThresholdDecider
from repro.core.counting import AdaptiveSplittingCounter
from repro.core.exponential import ExponentialIncrease
from repro.core.interval import IntervalQuery
from repro.core.oracle import OracleBins
from repro.core.probabilistic import ProbabilisticThreshold
from repro.core.reliable import (
    ChernoffConfirm,
    KRepeatConfirm,
    ReliableThreshold,
    RetryPolicy,
)
from repro.core.result import ThresholdResult
from repro.core.two_t_bins import TwoTBins
from repro.core.variations import FourFoldIncrease, PauseAndContinue
from repro.faults.plan import FaultPlan
from repro.group_testing.model import (
    ModelSpec,
    OnePlusModel,
    QueryModel,
    TwoPlusModel,
)
from repro.group_testing.population import Population
from repro.group_testing.vectorized import (
    BatchDecision,
    QueryBatch,
    dispatch_batch,
)

#: Defaults for the ``reliable=`` string shortcuts; pass a configured
#: policy via ``retry_policy=`` when these do not fit.
_DEFAULT_P_SINGLE = 0.05
_DEFAULT_DELTA = 0.01

#: Prefix resolving ``"reliable-<base>"`` names to a wrapped base.
_RELIABLE_PREFIX = "reliable-"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: a keyword-configured algorithm factory.

    Attributes:
        key: Canonical registry name.
        build: Factory taking keyword configuration only (plus ``x=`` for
            oracle-style entries).
        summary: One-line description for listings.
        needs_x: Whether the factory requires the true positive count
            ``x`` (the oracle baseline only).
        decider: Whether instances satisfy
            :class:`~repro.core.base.ThresholdDecider` (the counting and
            interval helpers do not; they expose ``count``/interval
            ``decide`` interfaces instead and cannot be made reliable or
            used by :func:`threshold_query`).
    """

    key: str
    build: Callable[..., object]
    summary: str
    needs_x: bool = False
    decider: bool = True


def _build_abns(**config: Any) -> Abns:
    """ABNS requires exactly one of ``p0``/``p0_multiple``; default to
    the paper's ``p0 = t`` when the caller pins neither."""
    if "p0" not in config and "p0_multiple" not in config:
        config["p0_multiple"] = 1.0
    return Abns(**config)


def _build_oracle(*, x: int, **config: Any) -> OracleBins:
    return OracleBins(x, **config)


def _build_prob_threshold(**config: Any) -> ProbabilisticThreshold:
    """Default the bimodal spec to the Fig 9/10 family when not given."""
    spec = config.pop("spec", None)
    if spec is None:
        spec = BimodalSpec.symmetric(n=128, d=16.0, sigma=8.0)
    return ProbabilisticThreshold(spec, **config)


#: Canonical algorithm registry.  Every factory takes keyword
#: configuration; see each class's constructor for the accepted keys.
REGISTRY: Dict[str, AlgorithmSpec] = {
    spec.key: spec
    for spec in (
        AlgorithmSpec(
            key="2tbins",
            build=TwoTBins,
            summary="Algorithm 1: fixed 2t bins per round",
        ),
        AlgorithmSpec(
            key="exponential",
            build=ExponentialIncrease,
            summary="Algorithm 2: exponential bin-count increase",
        ),
        AlgorithmSpec(
            key="abns",
            build=_build_abns,
            summary="Algorithm 3: adaptive bin number selection "
            "(p0/p0_multiple/policy/stagnation_limit)",
        ),
        AlgorithmSpec(
            key="prob-abns",
            build=ProbabilisticAbns,
            summary="Sec V-D: sampled probe chooses ABNS's p0",
        ),
        AlgorithmSpec(
            key="pause-and-continue",
            build=PauseAndContinue,
            summary="excluded variation: pause-and-continue",
        ),
        AlgorithmSpec(
            key="four-fold",
            build=FourFoldIncrease,
            summary="excluded variation: four-fold increase",
        ),
        AlgorithmSpec(
            key="oracle",
            build=_build_oracle,
            summary="Sec V-C lower-bound baseline (needs the true x)",
            needs_x=True,
        ),
        AlgorithmSpec(
            key="prob-threshold",
            build=_build_prob_threshold,
            summary="Sec VI: O(1) bimodal probabilistic scheme "
            "(spec/delta/repeats)",
        ),
        AlgorithmSpec(
            key="counting",
            build=AdaptiveSplittingCounter,
            summary="exact positive-count helper (count(), not decide())",
            decider=False,
        ),
        AlgorithmSpec(
            key="interval",
            build=IntervalQuery,
            summary="interval query helper (decide(model, lo, hi, rng))",
            decider=False,
        ),
    )
}

#: Removed spellings (deprecated in the PR-2 registry redesign, deleted
#: here): old name -> the replacement call to name in the error.
_REMOVED_ALIASES: Dict[str, str] = {
    "abns-t": "make_algorithm('abns', p0_multiple=1.0)",
    "abns-2t": "make_algorithm('abns', p0_multiple=2.0)",
}


def _resolve(name: str) -> Tuple[AlgorithmSpec, Dict[str, Any], bool]:
    """Resolve a user-facing name to ``(spec, implied_config, wrapped)``.

    Handles case folding and the ``reliable-`` prefix.  The pre-redesign
    ``abns-t``/``abns-2t`` aliases are gone; naming one raises a
    :class:`KeyError` that spells out the replacement.
    """
    key = name.lower()
    wrapped = key.startswith(_RELIABLE_PREFIX)
    if wrapped:
        key = key[len(_RELIABLE_PREFIX) :]
    if key in _REMOVED_ALIASES:
        raise KeyError(
            f"algorithm name {key!r} was removed; use "
            f"{_REMOVED_ALIASES[key]} instead"
        )
    if key not in REGISTRY:
        raise KeyError(
            f"unknown algorithm {name!r}; valid: {sorted(REGISTRY)} "
            f"(optionally prefixed with {_RELIABLE_PREFIX!r})"
        )
    return REGISTRY[key], {}, wrapped


def _resolve_policy(
    reliable: Union[None, str, RetryPolicy],
    retry_policy: Optional[RetryPolicy],
) -> Optional[RetryPolicy]:
    """Turn the ``reliable=``/``retry_policy=`` pair into one policy."""
    if reliable is not None and retry_policy is not None:
        raise ValueError("pass either reliable= or retry_policy=, not both")
    if retry_policy is not None:
        return retry_policy
    if reliable is None:
        return None
    if isinstance(reliable, RetryPolicy):
        return reliable
    shortcut = str(reliable).lower()
    if shortcut == "krepeat":
        return KRepeatConfirm()
    if shortcut == "chernoff":
        return ChernoffConfirm(_DEFAULT_P_SINGLE, delta=_DEFAULT_DELTA)
    raise ValueError(
        f"unknown reliable= shortcut {reliable!r}; valid: 'krepeat', "
        "'chernoff', or any RetryPolicy instance"
    )


def make_algorithm(
    name: str,
    *,
    x: Optional[int] = None,
    reliable: Union[None, str, RetryPolicy] = None,
    retry_policy: Optional[RetryPolicy] = None,
    **config: Any,
):
    """Instantiate an algorithm by name with keyword configuration.

    Args:
        name: A :data:`REGISTRY` key (case-insensitive), a deprecated
            alias, or ``"reliable-<key>"`` for a wrapped variant with the
            default confirmation policy.
        x: True positive count, required by ``"oracle"`` only (ignored
            elsewhere, so sweep loops can pass it unconditionally).
        reliable: Wrap the algorithm in
            :class:`~repro.core.reliable.ReliableThreshold`: the string
            shortcuts ``"krepeat"`` / ``"chernoff"`` use library
            defaults; a :class:`~repro.core.reliable.RetryPolicy`
            instance is used as-is.
        retry_policy: Explicit confirmation policy (mutually exclusive
            with ``reliable``).
        **config: Forwarded to the algorithm's constructor, e.g.
            ``p0_multiple=2.0`` for ABNS or ``repeats=12`` for the
            probabilistic scheme.

    Raises:
        KeyError: For unknown names (message lists the valid ones).
        ValueError: If ``"oracle"`` is requested without ``x``, both
            ``reliable`` and ``retry_policy`` are given, or a
            non-decider helper (``"counting"``/``"interval"``) is asked
            to be reliable.

    Example:
        >>> make_algorithm("2tbins", reliable="chernoff").name
        'reliable(2tBins)'
    """
    spec, implied, wrapped = _resolve(name)
    implied.update(config)
    if spec.needs_x:
        if x is None:
            raise ValueError("the oracle needs the true positive count x")
        implied["x"] = x
    algo = spec.build(**implied)
    if wrapped and reliable is None and retry_policy is None:
        reliable = "krepeat"
    policy = _resolve_policy(reliable, retry_policy)
    if policy is None:
        return algo
    if not spec.decider:
        raise ValueError(
            f"{spec.key!r} is not a threshold decider and cannot be "
            "wrapped in the reliability layer"
        )
    return ReliableThreshold(algo, policy)


@dataclass(frozen=True)
class RegistryFactory:
    """A picklable ``x -> algorithm`` factory over :data:`REGISTRY`.

    Sweep seams (:class:`repro.experiments.common.SweepEngine`) call
    their algorithm factory once per cell with the cell's true positive
    count; this dataclass carries the registry name plus keyword
    configuration declaratively so the call can be shipped to a worker
    process (closures cannot).  Build via :func:`algorithm_factory`.
    """

    name: str
    x: Optional[int] = None
    reliable: Union[None, str, RetryPolicy] = None
    retry_policy: Optional[RetryPolicy] = None
    config: Mapping[str, Any] = field(default_factory=dict)

    def __call__(self, x: Optional[int] = None):
        """Build the algorithm; a cell-supplied ``x`` wins over the
        pinned one."""
        return make_algorithm(
            self.name,
            x=x if x is not None else self.x,
            reliable=self.reliable,
            retry_policy=self.retry_policy,
            **dict(self.config),
        )


def algorithm_factory(
    name: str,
    *,
    x: Optional[int] = None,
    reliable: Union[None, str, RetryPolicy] = None,
    retry_policy: Optional[RetryPolicy] = None,
    **config: Any,
) -> RegistryFactory:
    """A picklable factory equivalent to a ``make_algorithm`` closure.

    The name (and any alias/shortcut) is validated eagerly so a typo
    fails where the factory is defined, not inside a worker process.
    """
    _resolve(name)
    _resolve_policy(reliable, retry_policy)
    return RegistryFactory(
        name=name,
        x=x,
        reliable=reliable,
        retry_policy=retry_policy,
        config=dict(config),
    )


class _RemovedAlgorithmsTable(Mapping[str, Any]):
    """Tombstone for the pre-redesign positional ``ALGORITHMS`` table.

    The table was deprecated in the PR-2 registry redesign and is now
    removed.  The name stays importable so old code fails with an
    actionable error at the point of *use* rather than an opaque
    ``ImportError``: every mapping operation raises, naming the
    replacement (:func:`make_algorithm` / :func:`algorithm_factory` over
    :data:`REGISTRY`).
    """

    _MESSAGE = (
        "the positional ALGORITHMS table was removed; use "
        "make_algorithm(name, ...) for direct construction or "
        "algorithm_factory(name, ...) for a picklable x -> algorithm "
        "factory over repro.api.REGISTRY"
    )

    def _removed(self) -> NoReturn:
        raise RuntimeError(self._MESSAGE)

    def __getitem__(self, key: str) -> Any:
        self._removed()

    def __contains__(self, key: object) -> bool:
        self._removed()

    def __iter__(self) -> Iterator[str]:
        self._removed()

    def __len__(self) -> int:
        self._removed()

    def __bool__(self) -> bool:
        self._removed()


#: Removed positional registry.  Any access raises with a pointer to
#: :func:`make_algorithm` / :func:`algorithm_factory`.
ALGORITHMS: Mapping[str, Any] = _RemovedAlgorithmsTable()


def threshold_query(
    target: Union[Population, QueryModel],
    threshold: int,
    *,
    algorithm: str = "prob-abns",
    collision_model: str = "1+",
    seed: int = 0,
    x_hint: Optional[int] = None,
    reliable: Union[None, str, RetryPolicy] = None,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    algorithm_options: Optional[Mapping[str, Any]] = None,
) -> ThresholdResult:
    """Answer ``x >= threshold`` over a population or an existing model.

    Args:
        target: Either a :class:`Population` (a fresh query model is built
            over it) or a ready :class:`QueryModel`.
        threshold: The threshold ``t``.
        algorithm: Registry name (see :func:`make_algorithm`).
        collision_model: ``"1+"`` or ``"2+"`` -- only used when ``target``
            is a population.
        seed: Root seed for the model and bin randomness.
        x_hint: True positive count for the oracle algorithm (filled in
            automatically when ``target`` is a population).
        reliable: Wrap the session in the reliability layer; see
            :func:`make_algorithm`.
        retry_policy: Explicit confirmation policy (mutually exclusive
            with ``reliable``).
        fault_plan: A :class:`~repro.faults.plan.FaultPlan` to inject
            radio faults into the session.  When ``target`` is a
            population the plan's drop faults become the model's
            ``detection_failure`` hook and its observation-level faults
            wrap the model; when ``target`` is an existing model only
            the observation-level wrap applies (configure the model's
            own hook for drops).
        algorithm_options: Extra keyword configuration forwarded to the
            algorithm constructor (``make_algorithm``'s ``**config``).

    Returns:
        The session's :class:`ThresholdResult`.

    Raises:
        TypeError: If ``algorithm`` names a non-decider helper
            (``"counting"``/``"interval"``).

    Example:
        >>> pop = Population.from_count(64, 20)
        >>> threshold_query(pop, 8, algorithm="2tbins", seed=1).decision
        True
    """
    plan = fault_plan if fault_plan is not None else FaultPlan.none()
    spec, _, _ = _resolve(algorithm)
    if isinstance(target, Population):
        rng = np.random.default_rng(seed)
        hook = plan.detection_hook(None)
        if collision_model == "1+":
            model: QueryModel = OnePlusModel(target, rng, detection_failure=hook)
        elif collision_model == "2+":
            model = TwoPlusModel(target, rng, detection_failure=hook)
        else:
            raise ValueError(
                f"collision_model must be '1+' or '2+', got {collision_model!r}"
            )
        if x_hint is None and spec.needs_x:
            x_hint = target.x
    else:
        model = target
    model = plan.wrap_model(model)
    algo = make_algorithm(
        algorithm,
        x=x_hint,
        reliable=reliable,
        retry_policy=retry_policy,
        **dict(algorithm_options or {}),
    )
    if not isinstance(algo, ThresholdDecider):
        raise TypeError(
            f"algorithm {algorithm!r} is not a threshold decider; use its "
            "dedicated interface instead"
        )
    return algo.decide(model, threshold, np.random.default_rng(seed + 1))


def threshold_query_batch(
    population_size: int,
    x: int,
    threshold: int,
    *,
    runs: int,
    algorithm: str = "2tbins",
    collision_model: str = "1+",
    seed: int = 0,
    max_queries: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    algorithm_options: Optional[Mapping[str, Any]] = None,
) -> BatchDecision:
    """Answer ``x >= threshold`` over ``runs`` random populations at once.

    The batch-first counterpart of :func:`threshold_query`: one call runs
    a whole Monte-Carlo cell.  Per-run randomness comes from
    ``Generator.spawn``-derived streams -- ``default_rng(seed)`` spawns
    one child per run, and each child spawns the run's
    ``(population, model, bins)`` triple -- so run ``r`` is a
    deterministic function of ``(seed, r)`` regardless of batch size.

    When the algorithm is batch-capable
    (:class:`~repro.core.base.BatchThresholdDecider`) and no fault plan
    is active, the cell executes on the vectorized kernel; otherwise
    every run takes the scalar path over the *same* streams, so the two
    paths are interchangeable bit for bit
    (:func:`~repro.group_testing.vectorized.dispatch_batch` makes the
    choice).

    Args:
        population_size: Number of participant nodes ``n``.
        x: True positive count of every run's population.
        threshold: The threshold ``t``.
        runs: Number of Monte-Carlo trials (``>= 1``).
        algorithm: Registry name (see :func:`make_algorithm`).
        collision_model: ``"1+"``, ``"2+"`` or ``"k+"``.
        seed: Root seed of the spawn tree.
        max_queries: Optional per-run query budget.
        fault_plan: Optional fault injection; an active plan forces the
            scalar path.
        algorithm_options: Extra keyword configuration for the algorithm.

    Returns:
        The per-run decisions and query counts as a
        :class:`~repro.group_testing.vectorized.BatchDecision`.

    Raises:
        ValueError: If ``runs`` is below 1.

    Example:
        >>> out = threshold_query_batch(64, 20, 8, runs=16, seed=1)
        >>> bool(out.decisions.all())
        True
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    plan = fault_plan if fault_plan is not None else FaultPlan.none()
    spec, _, _ = _resolve(algorithm)
    algo = make_algorithm(
        algorithm,
        x=x if spec.needs_x else None,
        **dict(algorithm_options or {}),
    )
    if not isinstance(algo, ThresholdDecider):
        raise TypeError(
            f"algorithm {algorithm!r} is not a threshold decider; use its "
            "dedicated interface instead"
        )
    model_spec = ModelSpec(
        kind=collision_model,
        max_queries=max_queries,
        detection_failure=plan.detection_hook(None),
    )

    def faulted_model(
        population: Population, rng: np.random.Generator
    ) -> QueryModel:
        return plan.wrap_model(model_spec(population, rng))

    batch = QueryBatch.spawned(
        segments=[(seed, runs, x)],
        n=population_size,
        threshold=threshold,
        model=faulted_model if plan else model_spec,
    )
    decision, _ = dispatch_batch(algo, batch, vectorize=not plan)
    return decision
