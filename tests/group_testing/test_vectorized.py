"""Bit-exactness of the vectorized Monte-Carlo kernel.

The vectorized path must be indistinguishable from the scalar oracle:
identical verdicts and query counts for every run, identical RNG stream
consumption (the next draw after a cell matches), identical ``model.*``
metrics totals, and a guaranteed scalar fallback whenever a fault plan
or an unsupported configuration is in play.  ``dispatch_batch`` is the
single place that makes that choice; its tests pin the path it reports
and the answers of every path.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    REGISTRY,
    algorithm_factory,
    make_algorithm,
    threshold_query_batch,
)
from repro.core import BatchThresholdDecider, TwoTBins
from repro.experiments.common import SweepEngine
from repro.faults.injectors import VerdictFlip
from repro.faults.plan import FaultPlan
from repro.group_testing import vectorized
from repro.group_testing import (
    ModelSpec,
    Population,
    QueryBatch,
    QueryBudgetExceeded,
    UnsupportedBatch,
    dispatch_batch,
    run_lockstep,
)
from repro.obs import get_registry
from repro.sim import fastseed

DECIDER_NAMES = sorted(key for key, spec in REGISTRY.items() if spec.decider)
VECTORIZED_NAMES = sorted(
    key for key in DECIDER_NAMES
    if hasattr(algorithm_factory(key)(0), "decide_batch")
)
MODEL_KINDS = ("1+", "k+", "2+")

N, T = 48, 6
XS = (0, 3, 5, 6, 7, 24, 48)
RUNS = 8
SEED = 1234


def _model_spec(kind: str) -> ModelSpec:
    return ModelSpec(kind=kind, max_queries=80 * N, k=3)


def _curve(name: str, kind: str, vectorize: bool):
    engine = SweepEngine(N, T, runs=RUNS, seed=SEED, vectorize=vectorize)
    return engine.query_curve(
        name, XS, algorithm_factory(name), _model_spec(kind)
    )


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Every test starts and ends with a disabled, zeroed registry."""
    registry = get_registry()
    registry.disable()
    registry.reset()
    yield registry
    registry.disable()
    registry.reset()


def _memoized_streams(salt: int):
    """A pure per-run stream factory that exposes its created generators."""
    cache = {}

    def streams(run: int):
        if run not in cache:
            seq = np.random.SeedSequence([salt, run])
            cache[run] = tuple(np.random.default_rng(s) for s in seq.spawn(3))
        return cache[run]

    return streams, cache


class TestEngineParity:
    """SweepEngine(vectorize=True) == SweepEngine(vectorize=False)."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", DECIDER_NAMES)
    def test_curves_identical_across_registry(self, name, kind):
        vec = _curve(name, kind, vectorize=True)
        scalar = _curve(name, kind, vectorize=False)
        assert vec.ys == scalar.ys, f"{name}/{kind}"
        assert vec.stderr == scalar.stderr, f"{name}/{kind}"

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", VECTORIZED_NAMES)
    def test_vectorized_entries_take_the_kernel_path(
        self, name, kind, _pristine_registry
    ):
        registry = _pristine_registry
        registry.enable()
        _curve(name, kind, vectorize=True)
        snapshot = registry.snapshot()
        if name == "prob-threshold" and kind == "2+":
            # Capture-model probes draw model randomness per probe; the
            # kernel refuses and every cell falls back to the oracle.
            assert snapshot.counter("sweep.vectorized_shards") == 0
            assert snapshot.counter("sweep.vectorized_fallback") > 0
        else:
            assert snapshot.counter("sweep.vectorized_shards") > 0, (
                f"{name}/{kind}: no cell dispatched to the kernel"
            )

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", VECTORIZED_NAMES)
    def test_metrics_totals_reconcile(self, name, kind, _pristine_registry):
        registry = _pristine_registry
        registry.enable()
        _curve(name, kind, vectorize=True)
        vec = registry.snapshot()
        registry.reset()
        _curve(name, kind, vectorize=False)
        scalar = registry.snapshot()
        for counter in (
            "model.queries",
            "model.verdict.silent",
            "model.verdict.activity",
            "model.verdict.capture",
            "sweep.runs",
            "sweep.shards",
        ):
            assert vec.counter(counter) == scalar.counter(counter), counter
        vec_hist = vec.histograms.get("model.bin_size")
        scalar_hist = scalar.histograms.get("model.bin_size")
        assert (vec_hist is None) == (scalar_hist is None)
        if vec_hist is not None:
            assert vec_hist.counts == scalar_hist.counts
            assert vec_hist.total == scalar_hist.total
            assert vec_hist.sum == scalar_hist.sum
            assert vec_hist.min == scalar_hist.min
            assert vec_hist.max == scalar_hist.max


class TestStreamConsumption:
    """The kernel leaves every RNG stream exactly where the scalar path would."""

    # fast_states cannot rebuild custom streams, so even 40 runs take
    # the 2+ per-run capture loop, which draws on these generators
    # exactly as the scalar run does.
    @pytest.mark.parametrize("runs", [6, 40])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_post_run_generator_states_match_scalar(self, kind, runs):
        spec = _model_spec(kind)
        vec_streams, vec_cache = _memoized_streams(salt=9)
        batch = QueryBatch(
            n=32, x=10, threshold=5, run_lo=0, run_hi=runs,
            model=spec, streams=vec_streams,
        )
        out = TwoTBins().decide_batch(batch)

        scalar_streams, scalar_cache = _memoized_streams(salt=9)
        for run in range(runs):
            pop_rng, model_rng, bins_rng = scalar_streams(run)
            pop = Population.from_count(32, 10, pop_rng)
            model = spec(pop, model_rng)
            result = TwoTBins().decide(model, 5, bins_rng)
            assert result.decision == bool(out.decisions[run])
            assert result.queries == int(out.queries[run])

        for run in range(runs):
            for vec_gen, scalar_gen in zip(vec_cache[run], scalar_cache[run]):
                assert (
                    vec_gen.bit_generator.state
                    == scalar_gen.bit_generator.state
                ), f"run {run}: stream consumed a different number of draws"

    def test_capture_draws_stop_where_the_scalar_run_stops(self):
        # x < t: a silent first half (about one run in nine) proves False
        # before the second half's collision, whose capture draw the
        # scalar run therefore never makes.
        spec = ModelSpec(kind="2+")
        runs, n, x, t = 40, 32, 3, 17
        vec_streams, vec_cache = _memoized_streams(salt=4)
        make_algorithm("exponential").decide_batch(QueryBatch(
            n=n, x=x, threshold=t, run_lo=0, run_hi=runs,
            model=spec, streams=vec_streams,
        ))
        scalar_streams, scalar_cache = _memoized_streams(salt=4)
        for run in range(runs):
            pop_rng, model_rng, bins_rng = scalar_streams(run)
            model = spec(Population.from_count(n, x, pop_rng), model_rng)
            make_algorithm("exponential").decide(model, t, bins_rng)
        for run in range(runs):
            assert (
                vec_cache[run][1].bit_generator.state
                == scalar_cache[run][1].bit_generator.state
            ), f"run {run}: model stream consumed a different number of draws"


def _dispatch_batch(kind: str, layout: str, faulted: bool) -> QueryBatch:
    """A batch in either stream layout, optionally under a fault plan
    (a drop hook on the spec plus an observation-level model wrapper)."""
    plan = (
        FaultPlan([VerdictFlip(p_drop=0.2, p_fake=0.1)], seed=4)
        if faulted
        else FaultPlan.none()
    )
    spec = ModelSpec(
        kind=kind, max_queries=80 * N, k=3,
        detection_failure=plan.detection_hook(None),
    )

    def model(pop, rng):
        return plan.wrap_model(spec(pop, rng))

    factory = model if plan else spec
    if layout == "for_cell":
        return QueryBatch.for_cell(
            seed=SEED, label="dispatch", x=7, n=N, threshold=T,
            run_lo=2, run_hi=2 + RUNS, model=factory,
        )
    return QueryBatch.spawned(
        segments=[(SEED, RUNS, 7)], n=N, threshold=T, model=factory
    )


class TestDispatch:
    """dispatch_batch: one kernel-or-scalar choice, the same answers."""

    @pytest.mark.parametrize("layout", ["for_cell", "spawned"])
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", DECIDER_NAMES)
    def test_paths_agree(self, name, kind, faulted, layout):
        decider = algorithm_factory(name)(7)
        scalar, scalar_path = dispatch_batch(
            decider, _dispatch_batch(kind, layout, faulted), vectorize=False
        )
        allowed, allowed_path = dispatch_batch(
            decider, _dispatch_batch(kind, layout, faulted), vectorize=True
        )
        kernel_replays = (
            name in VECTORIZED_NAMES
            and not faulted
            and not (name == "prob-threshold" and kind == "2+")
        )
        assert scalar_path == "scalar"
        assert allowed_path == ("kernel" if kernel_replays else "fallback")
        assert (allowed.decisions == scalar.decisions).all()
        assert (allowed.queries == scalar.queries).all()
        assert allowed.exact == scalar.exact
        assert scalar.decisions.shape == (RUNS,)

    def test_scalar_failure_names_its_run(self):
        batch = _dispatch_batch("1+", "for_cell", faulted=False)
        calls = []

        def failing_model(pop, rng):
            calls.append(pop)
            if len(calls) == 3:
                raise RuntimeError("model construction failed")
            return batch.model(pop, rng)

        with pytest.raises(RuntimeError) as info:
            dispatch_batch(
                TwoTBins(), replace(batch, model=failing_model), vectorize=True
            )
        assert info.value.failed_run == batch.run_lo + 2


class TestBatchFacade:
    """threshold_query_batch: spawn streams, dispatch, fallback."""

    def test_exact_and_deterministic(self):
        above = threshold_query_batch(64, 20, 8, runs=12, seed=5)
        below = threshold_query_batch(64, 4, 8, runs=12, seed=5)
        again = threshold_query_batch(64, 20, 8, runs=12, seed=5)
        assert above.exact
        assert above.decisions.all()
        assert not below.decisions.any()
        assert (above.decisions == again.decisions).all()
        assert (above.queries == again.queries).all()

    def test_dispatches_to_kernel_when_supported(self, monkeypatch):
        calls = []
        original = TwoTBins.decide_batch

        def spy(self, batch):
            calls.append(batch)
            return original(self, batch)

        monkeypatch.setattr(TwoTBins, "decide_batch", spy)
        threshold_query_batch(32, 10, 4, runs=3, seed=1)
        assert len(calls) == 1

    def test_fault_plan_forces_scalar_path(self, monkeypatch):
        def forbidden(self, batch):
            raise AssertionError("kernel used despite an active fault plan")

        monkeypatch.setattr(TwoTBins, "decide_batch", forbidden)
        plan = FaultPlan([VerdictFlip(p_drop=0.2, only_single=True)], seed=4)
        out = threshold_query_batch(
            32, 10, 4, runs=3, seed=1, fault_plan=plan
        )
        assert out.decisions.shape == (3,)

    def test_unsupported_batch_falls_back_to_scalar(self, monkeypatch):
        # Capture-model probes are not vectorized: decide_batch raises
        # UnsupportedBatch and the facade reruns on the scalar path.
        from repro.core import ProbabilisticThreshold

        original = ProbabilisticThreshold.decide_batch
        raised = []

        def spy(self, batch):
            try:
                return original(self, batch)
            except UnsupportedBatch:
                raised.append(True)
                raise

        monkeypatch.setattr(ProbabilisticThreshold, "decide_batch", spy)
        out = threshold_query_batch(
            32, 16, 4, runs=4, seed=2,
            algorithm="prob-threshold", collision_model="2+",
        )
        assert raised == [True]
        assert not out.exact
        assert out.decisions.shape == (4,)

    def test_scalar_only_algorithm_supported(self):
        out = threshold_query_batch(32, 10, 4, runs=3, seed=1, algorithm="abns")
        assert out.decisions.all()

    def test_negative_seed_rejected_when_the_batch_is_built(self):
        # Lazily derived streams would raise numpy's own message from
        # inside the kernel instead.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            QueryBatch.spawned(
                segments=[(3, 2, 2), (-1, 2, 2)], n=8, threshold=1,
                model=ModelSpec(kind="1+"),
            )
        with pytest.raises(ValueError, match="seed must be >= 0"):
            threshold_query_batch(8, 2, 1, runs=2, seed=-1)

    def test_negative_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            threshold_query_batch(8, 2, 1, runs=-1)
        # Zero runs would report ``exact`` by whichever path ran.
        for collision_model in ("1+", "2+"):
            with pytest.raises(ValueError, match="runs must be >= 1"):
                threshold_query_batch(
                    32, 16, 4, runs=0, algorithm="prob-threshold",
                    collision_model=collision_model,
                )


def _miss_probability(size: int) -> float:
    # Never actually misses: the hook's mere presence must force the
    # scalar path (the kernel cannot replay its model-stream draws),
    # while the results stay exact and comparable.
    return 0.0


class TestEngineFallback:
    """Detection-failure hooks force every cell onto the scalar path."""

    def test_detection_hook_counts_as_fallback(self, _pristine_registry):
        registry = _pristine_registry
        registry.enable()
        engine = SweepEngine(N, T, runs=RUNS, seed=SEED, vectorize=True)
        spec = ModelSpec(
            kind="1+", max_queries=80 * N,
            detection_failure=_miss_probability,
        )
        engine.query_curve("2tBins", [6, 24], algorithm_factory("2tbins"), spec)
        snapshot = registry.snapshot()
        assert snapshot.counter("sweep.vectorized_shards") == 0
        assert snapshot.counter("sweep.vectorized_fallback") > 0

    def test_results_identical_despite_fallback(self):
        spec = ModelSpec(
            kind="1+", max_queries=80 * N,
            detection_failure=_miss_probability,
        )

        def curve(vectorize):
            engine = SweepEngine(
                N, T, runs=RUNS, seed=SEED, vectorize=vectorize
            )
            return engine.query_curve(
                "2tBins", [6, 24], algorithm_factory("2tbins"), spec
            )

        assert curve(True).ys == curve(False).ys


class TestKernelEdgeCases:
    def _batch(self, *, n=16, x=5, threshold=4, runs=3, spec=None):
        streams, _ = _memoized_streams(salt=3)
        return QueryBatch(
            n=n, x=x, threshold=threshold, run_lo=0, run_hi=runs,
            model=spec if spec is not None else ModelSpec(kind="1+"),
            streams=streams,
        )

    def test_threshold_zero_is_free(self):
        out = run_lockstep(self._batch(threshold=0), lambda r: 8)
        assert out.decisions.all()
        assert (out.queries == 0).all()

    def test_population_smaller_than_threshold(self):
        out = run_lockstep(self._batch(n=3, x=2, threshold=5), lambda r: 8)
        assert not out.decisions.any()
        assert (out.queries == 0).all()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            run_lockstep(self._batch(threshold=-1), lambda r: 8)

    def test_budget_exhaustion_matches_scalar_error(self):
        spec = ModelSpec(kind="1+", max_queries=2)
        with pytest.raises(QueryBudgetExceeded, match="budget of 2"):
            run_lockstep(self._batch(spec=spec), lambda r: 8)

    def test_detection_hook_unsupported(self):
        spec = ModelSpec(kind="1+", detection_failure=_miss_probability)
        with pytest.raises(UnsupportedBatch):
            run_lockstep(self._batch(spec=spec), lambda r: 8)

    def test_batch_protocol_membership(self):
        assert isinstance(TwoTBins(), BatchThresholdDecider)
        assert isinstance(make_algorithm("exponential"), BatchThresholdDecider)
        assert not isinstance(make_algorithm("abns"), BatchThresholdDecider)


def _metered(registry, decider, batch, *, vectorize):
    """``dispatch_batch`` plus the ``model.*`` metrics it recorded."""
    registry.reset()
    registry.enable()
    out, path = dispatch_batch(decider, batch, vectorize=vectorize)
    snapshot = registry.snapshot()
    registry.disable()
    registry.reset()
    counters = {
        key: value for key, value in snapshot.counters.items()
        if key.startswith("model.")
    }
    return out, path, counters, snapshot.histograms.get("model.bin_size")


def _kernel_counters(registry):
    """The ``kernel.*`` counters recorded so far."""
    return {
        key: value for key, value in registry.snapshot().counters.items()
        if key.startswith("kernel.")
    }


def _assert_same(a, b):
    out_a, _, counters_a, hist_a = a
    out_b, _, counters_b, hist_b = b
    np.testing.assert_array_equal(out_a.decisions, out_b.decisions)
    np.testing.assert_array_equal(out_a.queries, out_b.queries)
    assert out_a.exact == out_b.exact
    assert counters_a == counters_b
    assert hist_a == hist_b


def _layout_batch(layout, *, kind, runs, n=64, x=20, threshold=8, spec=None):
    spec = spec if spec is not None else ModelSpec(kind=kind, k=3, max_queries=40 * n)
    if layout == "for_cell":
        return QueryBatch.for_cell(
            seed=SEED, label="capture", x=x, n=n, threshold=threshold,
            run_lo=5, run_hi=5 + runs, model=spec,
        )
    cut = runs // 3
    return QueryBatch.spawned(
        segments=[(11, cut, x), (12, runs - 2 * cut, x), (13, cut, x)],
        n=n, threshold=threshold, model=spec,
    )


def _unreached_bad(c: int) -> float:
    """Out of range only at c = 32, a size no queried bin reaches below."""
    return 9.0 if c == 32 else 1.0 / c


def _reached_bad(c: int) -> float:
    """Out of range at c = 33, the size of every run's first bin below."""
    return 9.0 if c == 33 else 1.0 / c


class TestCaptureLockstep:
    """2+ cells of at least 32 runs replay their capture draws in lockstep."""

    @pytest.mark.parametrize("layout", ["for_cell", "spawned"])
    @pytest.mark.parametrize("name", ["2tbins", "exponential"])
    @pytest.mark.parametrize("runs", [31, 32])
    def test_size_rule_boundary_matches_scalar(
        self, runs, name, layout, monkeypatch, _pristine_registry
    ):
        per_run = []
        original = vectorized._run_one_capture

        def spy(*args, **kwargs):
            per_run.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(vectorized, "_run_one_capture", spy)
        decider = make_algorithm(name)
        batch = _layout_batch(layout, kind="2+", runs=runs)
        kernel = _metered(_pristine_registry, decider, batch, vectorize=True)
        assert kernel[1] == "kernel"
        # Below the rule every run takes the per-run loop; at it, none.
        assert len(per_run) == (runs if runs < 32 else 0)
        scalar = _metered(_pristine_registry, decider, batch, vectorize=False)
        _assert_same(kernel, scalar)
        assert kernel[2]["model.verdict.capture"] > 0

    @pytest.mark.parametrize("layout", ["for_cell", "spawned"])
    def test_query_budget_matches_scalar_error(self, layout):
        spec = ModelSpec(kind="2+", max_queries=9)
        batch = _layout_batch(layout, kind="2+", runs=40, x=12, spec=spec)
        decider = make_algorithm("exponential")
        for vectorize in (True, False):
            with pytest.raises(QueryBudgetExceeded, match="budget of 9"):
                dispatch_batch(decider, batch, vectorize=vectorize)

    @pytest.mark.parametrize("layout", ["for_cell", "spawned"])
    def test_capture_probability_checked_only_where_reached(self, layout):
        # n = 65 all positive, t = 1: bin 0 holds 33 positives and its
        # collision decides the run, so the 32-positive bin 1 is never
        # queried and its capture probability never evaluated.
        decider = make_algorithm("2tbins")
        for vectorize in (True, False):
            spec = ModelSpec(kind="2+", capture_probability=_unreached_bad)
            batch = _layout_batch(
                layout, kind="2+", runs=40, n=65, x=65, threshold=1, spec=spec
            )
            out, _ = dispatch_batch(decider, batch, vectorize=vectorize)
            assert out.decisions.all()
            spec = ModelSpec(kind="2+", capture_probability=_reached_bad)
            batch = _layout_batch(
                layout, kind="2+", runs=40, n=65, x=65, threshold=1, spec=spec
            )
            with pytest.raises(
                ValueError, match=r"capture probability out of range: 9\.0"
            ):
                dispatch_batch(decider, batch, vectorize=vectorize)

    def test_unreplayable_model_generators_run_per_run(self, _pristine_registry):
        # Custom streams (here with an MT19937 model generator) have no
        # states for the lockstep to replay, so the cell runs per run.
        def streams(run):
            seq = np.random.SeedSequence([77, run])
            pop, model, bins = seq.spawn(3)
            return (
                np.random.default_rng(pop),
                np.random.Generator(np.random.MT19937(model)),
                np.random.default_rng(bins),
            )

        batch = QueryBatch(
            n=48, x=12, threshold=6, run_lo=0, run_hi=40,
            model=ModelSpec(kind="2+"), streams=streams,
        )
        decider = make_algorithm("2tbins")
        _pristine_registry.enable()
        kernel, path = dispatch_batch(decider, batch, vectorize=True)
        assert _kernel_counters(_pristine_registry) == {
            "kernel.seeding.per_run": 1, "kernel.capture.per_run": 1,
        }
        scalar, _ = dispatch_batch(decider, batch, vectorize=False)
        assert path == "kernel"
        np.testing.assert_array_equal(kernel.decisions, scalar.decisions)
        np.testing.assert_array_equal(kernel.queries, scalar.queries)

    @pytest.mark.parametrize("name", ["2tbins", "exponential"])
    def test_seed_beyond_64_bits_runs_per_run(self, name, _pristine_registry):
        # Spawned seeds of 2**64 or more are outside the fused pass, so
        # a 40-run cell builds its streams and draws its captures per
        # run, with the scalar run's answers and model.* counters.
        batch = QueryBatch.spawned(
            segments=[(2**64, 25, 12), (2**64 + 7, 15, 30)],
            n=64, threshold=8, model=ModelSpec(kind="2+"),
        )
        assert batch.spawn_seeds is None and batch.runs == 40
        decider = make_algorithm(name)
        _pristine_registry.enable()
        decider.decide_batch(batch)
        assert _kernel_counters(_pristine_registry) == {
            "kernel.seeding.per_run": 1, "kernel.capture.per_run": 1,
        }
        kernel = _metered(_pristine_registry, decider, batch, vectorize=True)
        scalar = _metered(_pristine_registry, decider, batch, vectorize=False)
        assert kernel[1] == "kernel"
        _assert_same(kernel, scalar)
        assert kernel[2]["model.verdict.capture"] > 0


class TestRowBlocks:
    """The round-major loop runs in row blocks that bound its memory."""

    @pytest.mark.parametrize("layout", ["for_cell", "spawned"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_multi_block_equals_one_block_and_scalar(
        self, kind, layout, monkeypatch, _pristine_registry
    ):
        decider = make_algorithm("exponential")
        batch = _layout_batch(layout, kind=kind, runs=45)
        one_block = _metered(_pristine_registry, decider, batch, vectorize=True)
        blocks = []
        original = vectorized._run_block

        def spy(batch, lo, hi, *args):
            blocks.append((lo, hi))
            return original(batch, lo, hi, *args)

        monkeypatch.setattr(vectorized, "_run_block", spy)
        monkeypatch.setattr(vectorized, "_BLOCK_CELLS", 7 * (batch.n + 1))
        multi = _metered(_pristine_registry, decider, batch, vectorize=True)
        assert blocks == [(lo, min(lo + 7, 45)) for lo in range(0, 45, 7)]
        scalar = _metered(_pristine_registry, decider, batch, vectorize=False)
        _assert_same(multi, one_block)
        _assert_same(multi, scalar)

    def test_large_population_peak_memory_is_bounded(self):
        # One block of _BLOCK_CELLS // (n + 1) = 52 rows peaks at about
        # 26 MB (tracemalloc).  The same cell as one 400-row block peaks
        # at about 200 MB: its int64 permutation and prefix sums alone
        # are 2 x 400 x 20,000 x 8 B = 128 MB.
        n, runs = 20_000, 400
        batch = QueryBatch.for_cell(
            seed=SEED, label="wide", x=40, n=n, threshold=30,
            run_lo=0, run_hi=runs, model=ModelSpec(kind="2+"),
        )
        tracemalloc.start()
        try:
            out = make_algorithm("2tbins").decide_batch(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.decisions.any()
        assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("kind", ["1+", "2+"])
    def test_round_arrays_are_int32_sized(self, kind):
        # A 1,024-run n = 128 group peaked at 7.0-7.6 MB with int64
        # permutations, prefix sums and slot -> bin maps; int32 halves
        # them (about 5.5 MB).
        batch = QueryBatch.for_cell(
            seed=2011, label="mem", x=16, n=128, threshold=16,
            run_lo=0, run_hi=1024, model=ModelSpec(kind=kind),
        )
        decider = make_algorithm("exponential")
        decider.decide_batch(batch)  # warm the per-thread pool and caches
        tracemalloc.start()
        try:
            out = decider.decide_batch(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.decisions.all()
        assert peak < 6.25 * 2**20, f"peak {peak / 2**20:.2f} MB"


class TestMixedX:
    """A spawned batch whose runs differ in x equals the scalar loop."""

    SEGMENTS = [(31, 9, 0), (32, 20, 17), (33, 4, 48), (34, 30, 17), (35, 7, 5)]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", VECTORIZED_NAMES)
    def test_kernel_equals_scalar_across_blocks(
        self, name, kind, monkeypatch, _pristine_registry
    ):
        decider = make_algorithm(name)
        batch = QueryBatch.spawned(
            segments=self.SEGMENTS, n=N, threshold=T, model=_model_spec(kind)
        )
        assert batch.x == 48 and batch.runs == 70
        assert batch.xs(8, 10).tolist() == [0, 17]
        one_block = _metered(_pristine_registry, decider, batch, vectorize=True)
        # 16-row blocks cut through segments.
        monkeypatch.setattr(vectorized, "_BLOCK_CELLS", 16 * (N + 1))
        blocks = _metered(_pristine_registry, decider, batch, vectorize=True)
        scalar = _metered(_pristine_registry, decider, batch, vectorize=False)
        _assert_same(one_block, scalar)
        _assert_same(blocks, scalar)

    def test_segment_x_matches_its_solo_batch(self):
        decider = make_algorithm("2tbins")
        spec = _model_spec("1+")
        whole, _ = dispatch_batch(
            decider,
            QueryBatch.spawned(segments=self.SEGMENTS, n=N, threshold=T, model=spec),
            vectorize=True,
        )
        lo = 0
        for segment in self.SEGMENTS:
            alone, _ = dispatch_batch(
                decider,
                QueryBatch.spawned(segments=[segment], n=N, threshold=T, model=spec),
                vectorize=True,
            )
            hi = lo + segment[1]
            np.testing.assert_array_equal(whole.decisions[lo:hi], alone.decisions)
            np.testing.assert_array_equal(whole.queries[lo:hi], alone.queries)
            lo = hi


class TestPopulationDraw:
    """``mark_positives`` draws a block's rows of one x in bulk only
    when enough of them share it, and the rows needed grow with x."""

    def test_rows_needed_grow_with_x(self):
        needed = [
            next((r for r in range(1, 4096) if vectorized._bulk_draw_pays(r, x)), None)
            for x in (1, 4, 12, 20, 34, 48, 54, 60, 100)
        ]
        assert needed[:-2] == sorted(needed[:-2])
        assert needed[0] < 48 < needed[5]
        assert needed[-2:] == [None, None]

    @pytest.mark.parametrize(
        "rows, x, path",
        [(64, 12, "bulk"), (64, 34, "per_run"), (160, 34, "bulk"), (160, 54, "per_run")],
    )
    def test_either_path_draws_what_choice_draws(
        self, rows, x, path, _pristine_registry
    ):
        n = 128
        seeds = list(range(7000, 7000 + rows))
        hit = np.zeros((rows, n), dtype=bool)
        _pristine_registry.enable()
        vectorized.mark_positives(hit, fastseed.pcg64_raw(seeds), n, x)
        counters = _pristine_registry.snapshot().counters
        assert {k: v for k, v in counters.items() if k.startswith("kernel.draw.")} == {
            f"kernel.draw.{path}": 1
        }
        for row, seed in zip(hit, seeds):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            want = np.zeros(n, dtype=bool)
            want[gen.choice(n, size=x, replace=False)] = True
            np.testing.assert_array_equal(row, want)
