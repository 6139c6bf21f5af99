"""Coalesced execution must be invisible in the answers, bit for bit."""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest

from repro.api import make_algorithm, threshold_query_batch
from repro.group_testing import ModelSpec, Population
from repro.obs import enable_metrics, get_registry
from repro.serve.errors import QueryExecutionError
from repro.serve.executor import (
    INLINE_KERNEL_CELLS,
    INLINE_SCALAR_CELLS,
    execute_group,
    runs_inline,
)
from repro.serve.request import MAX_RUNS_PER_REQUEST, QueryRequest


def _request(rid: str, *, seed: int, runs: int = 3, **overrides) -> QueryRequest:
    fields = {
        "id": rid,
        "tenant": "t",
        "n": 64,
        "x": 20,
        "threshold": 8,
        "runs": runs,
        "seed": seed,
    }
    fields.update(overrides)
    return QueryRequest(**fields)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "algorithm",
        ["2tbins", "exponential", "abns", "prob-abns", "2tbins+krepeat"],
    )
    # Runs 2..5 coalesce to 14; runs 9..12 coalesce to 42, so a 2+
    # group takes the capture lockstep while each request alone stays
    # below its 32-run size rule.
    @pytest.mark.parametrize(
        "collision_model, first_runs",
        [("1+", 2), ("2+", 2), ("2+", 9)],
        ids=["1+", "2+", "2+-lockstep"],
    )
    def test_coalesced_equals_solo_equals_scalar(
        self, algorithm, collision_model, first_runs
    ):
        """The acceptance-criterion identity: batch composition never
        changes a request's answers, and the vectorized kernel matches
        per-query scalar execution under fixed seeds.  Scalar-only
        configurations coalesce too, onto one scalar loop."""
        name, _, reliable = algorithm.partition("+")
        requests = [
            _request(
                f"q{i}",
                seed=100 + i,
                runs=first_runs + i,
                algorithm=name,
                collision_model=collision_model,
                reliable=reliable or None,
            )
            for i in range(4)
        ]
        coalesced = execute_group(requests)
        solo = [execute_group([r])[0] for r in requests]
        scalar = [execute_group([r], vectorize=False)[0] for r in requests]
        on_kernel = algorithm in ("2tbins", "exponential")
        assert all(o.batched == on_kernel for o in coalesced)
        assert not any(o.batched for o in scalar)
        for got, alone, oracle in zip(coalesced, solo, scalar):
            assert got.decisions == alone.decisions == oracle.decisions
            assert got.queries == alone.queries == oracle.queries
            assert got.exact and alone.exact and oracle.exact

    def test_group_order_does_not_change_answers(self):
        requests = [_request(f"q{i}", seed=7 * i, runs=4) for i in range(3)]
        forward = execute_group(requests)
        backward = execute_group(list(reversed(requests)))
        for i, outcome in enumerate(forward):
            assert outcome.decisions == backward[2 - i].decisions
            assert outcome.queries == backward[2 - i].queries

    def test_matches_the_public_batch_api(self):
        """One served request == one threshold_query_batch call."""
        request = _request("q0", seed=42, runs=16)
        [outcome] = execute_group([request])
        reference = threshold_query_batch(
            request.n,
            request.x,
            request.threshold,
            runs=request.runs,
            algorithm=request.algorithm,
            collision_model=request.collision_model,
            seed=request.seed,
        )
        assert outcome.decisions == tuple(bool(d) for d in reference.decisions)
        assert outcome.queries == tuple(int(q) for q in reference.queries)


#: Every registry decider the service accepts.
SERVABLE = (
    "2tbins", "exponential", "abns", "prob-abns", "pause-and-continue",
    "four-fold", "prob-threshold",
)

#: ``(runs, x)`` per request of a cross-x group.  ``small`` (4 runs)
#: stays below the fused-seeding crossover (6 runs).  ``large`` (58
#: runs) takes the fused pass, draws its 50 x = 20 rows in bulk (at
#: least 48 rows of one x) and its other x values per run, and runs 2+
#: on the capture lockstep (at least 32 runs).  x = 0 draws nothing;
#: x = n (2x > n + 16) draws per run whatever its row count.
MIXED_GROUPS = {
    "small": [(1, 3), (2, 41), (1, 0)],
    "large": [(30, 12), (3, 41), (20, 12), (4, 64), (1, 0)],
}


class TestCrossX:
    """A group spans x: each run's x enters only its population draw."""

    @pytest.mark.parametrize("shape", sorted(MIXED_GROUPS))
    @pytest.mark.parametrize("reliable", [None, "krepeat"])
    @pytest.mark.parametrize("collision_model", ["1+", "2+"])
    @pytest.mark.parametrize("algorithm", SERVABLE)
    def test_mixed_x_group_equals_solo_and_scalar(
        self, algorithm, collision_model, reliable, shape
    ):
        requests = [
            _request(
                f"q{i}",
                seed=500 + 17 * i,
                runs=runs,
                x=x,
                algorithm=algorithm,
                collision_model=collision_model,
                reliable=reliable,
            )
            for i, (runs, x) in enumerate(MIXED_GROUPS[shape])
        ]
        assert len({r.coalesce_key for r in requests}) == 1
        coalesced = execute_group(requests)
        for request, got in zip(requests, coalesced):
            [alone] = execute_group([request])
            [oracle] = execute_group([request], vectorize=False)
            assert got.decisions == alone.decisions == oracle.decisions
            assert got.queries == alone.queries == oracle.queries
            assert got.exact == alone.exact == oracle.exact

    @pytest.mark.parametrize("collision_model", ["1+", "2+"])
    @pytest.mark.parametrize("algorithm", ["2tbins", "exponential"])
    def test_size_rules_take_both_sides(
        self, algorithm, collision_model, _metrics_on
    ):
        """The groups above reach each size rule on both of its sides,
        and each counter pair partitions the batches reaching it."""
        seen = {}
        for shape, parts in sorted(MIXED_GROUPS.items()):
            _metrics_on.reset()
            execute_group([
                _request(
                    f"q{i}", seed=9 + i, runs=runs, x=x,
                    algorithm=algorithm, collision_model=collision_model,
                )
                for i, (runs, x) in enumerate(parts)
            ])
            counters = _metrics_on.snapshot().counters
            seen[shape] = {
                key: value for key, value in counters.items()
                if key.startswith("kernel.")
            }
        small, large = seen["small"], seen["large"]
        if collision_model == "2+":
            # Below 32 runs the per-run capture loop builds its streams
            # per run too; at 58 runs the lockstep runs fused.
            assert small == {
                "kernel.capture.per_run": 1, "kernel.seeding.per_run": 1,
            }
            expected_large = {"kernel.capture.lockstep": 1}
        else:
            assert small == {"kernel.seeding.per_run": 1}
            expected_large = {}
        # x = 12 (50 rows) in bulk; x = 41 and x = 64 per run; x = 0 no draw.
        expected_large.update({
            "kernel.seeding.fused": 1,
            "kernel.draw.bulk": 1,
            "kernel.draw.per_run": 2,
        })
        assert large == expected_large


@pytest.fixture
def _metrics_on():
    registry = get_registry()
    registry.reset()
    registry.enable()
    yield registry
    registry.disable()
    registry.reset()


class TestSeedingFallback:
    """Batches the fused pass cannot rebuild build each run's streams."""

    @staticmethod
    def _group(seed_base: int, collision_model: str):
        # 39 runs: enough for the 2+ capture lockstep, which needs the
        # fused pass's states, so without them the group runs per run.
        return [
            QueryRequest.from_wire({
                "id": f"q{i}", "n": 64, "x": x, "threshold": 8,
                "runs": 12 + i, "seed": seed_base + i,
                "collision_model": collision_model,
            })
            for i, x in enumerate((5, 30, 12))
        ]

    @pytest.mark.parametrize("collision_model", ["1+", "2+"])
    def test_seed_beyond_64_bits_builds_streams_per_run(
        self, collision_model, _metrics_on
    ):
        requests = self._group(2**64 - 1, collision_model)
        assert requests[1].seed == 2**64
        got = execute_group(requests)
        counters = _metrics_on.snapshot().counters
        assert counters.get("kernel.seeding.per_run") == 1
        assert "kernel.seeding.fused" not in counters
        if collision_model == "2+":
            assert counters.get("kernel.capture.per_run") == 1
            assert "kernel.capture.lockstep" not in counters
        for request, outcome in zip(requests, got):
            [oracle] = execute_group([request], vectorize=False)
            assert outcome.batched
            assert (outcome.decisions, outcome.queries) == (
                oracle.decisions, oracle.queries,
            )

    @pytest.mark.parametrize("collision_model", ["1+", "2+"])
    def test_failed_probe_builds_streams_per_run(
        self, collision_model, monkeypatch, _metrics_on
    ):
        from repro.sim import fastseed

        requests = self._group(77, collision_model)
        want = execute_group(requests)
        monkeypatch.setattr(fastseed, "_verified", False)
        _metrics_on.reset()
        got = execute_group(requests)
        counters = _metrics_on.snapshot().counters
        assert counters.get("kernel.seeding.per_run") == 1
        assert "kernel.seeding.fused" not in counters
        assert got == want


class TestPoolBound:
    def test_largest_request_keeps_the_thread_pool_bounded(self):
        """A request at the service's run cap runs in row blocks of at
        most ``_BLOCK_ROWS``, so the thread's generator pool stops at
        one slot per block row plus the scratch slot."""
        from repro.group_testing import vectorized

        request = _request(
            "big", seed=3, runs=MAX_RUNS_PER_REQUEST, n=16, x=5, threshold=4
        )
        [got] = execute_group([request])
        assert got.batched
        assert len(vectorized._pool()._gens) <= vectorized._BLOCK_ROWS + 1
        [oracle] = execute_group([request], vectorize=False)
        assert (got.decisions, got.queries) == (oracle.decisions, oracle.queries)


def _spawn_tree_reference(
    request: QueryRequest,
) -> Tuple[Tuple[bool, ...], Tuple[int, ...]]:
    """Answer ``request`` run by run over numpy's own spawn tree."""
    decider = make_algorithm(request.algorithm)
    decisions, queries = [], []
    for child in np.random.default_rng(request.seed).spawn(request.runs):
        pop_rng, model_rng, bins_rng = child.spawn(3)
        population = Population.from_count(request.n, request.x, pop_rng)
        model = ModelSpec(kind=request.collision_model)(population, model_rng)
        result = decider.decide(model, request.threshold, bins_rng)
        decisions.append(result.decision)
        queries.append(result.queries)
    return tuple(decisions), tuple(queries)


class TestSpawnTreeReference:
    """The API and a coalesced group replay a hand-built spawn tree.

    The other parity tests compare two paths that share one stream
    builder, so a layout change inside ``QueryBatch.spawned`` would pass
    them all; this one derives every run's streams independently.
    """

    @pytest.mark.parametrize(
        "algorithm, collision_model",
        [("2tbins", "1+"), ("2tbins", "2+"), ("abns", "1+")],
    )
    def test_api_and_group_match_the_reference(
        self, algorithm, collision_model
    ):
        requests = [
            _request(
                f"q{i}",
                seed=11 * i + 3,
                runs=3 + i,
                algorithm=algorithm,
                collision_model=collision_model,
            )
            for i in range(3)
        ]
        for request, served in zip(requests, execute_group(requests)):
            decisions, queries = _spawn_tree_reference(request)
            api = threshold_query_batch(
                request.n,
                request.x,
                request.threshold,
                runs=request.runs,
                algorithm=algorithm,
                collision_model=collision_model,
                seed=request.seed,
            )
            assert served.decisions == decisions
            assert served.queries == queries
            assert tuple(bool(d) for d in api.decisions) == decisions
            assert tuple(int(q) for q in api.queries) == queries


class TestPathCounters:
    """Every group counts once on serve.batches; its path moves the rest."""

    @staticmethod
    def _counters(requests):
        enable_metrics()
        execute_group(requests)
        snap = get_registry().snapshot()
        return tuple(
            snap.counter(name)
            for name in (
                "serve.batches",
                "serve.batched_requests",
                "serve.scalar_fallbacks",
            )
        )

    def test_kernel_group_counts_its_requests(self):
        requests = [_request(f"q{i}", seed=i) for i in range(3)]
        assert self._counters(requests) == (1, 3, 0)

    def test_declined_group_counts_one_fallback(self):
        requests = [
            _request(
                f"q{i}", seed=i, n=128, x=100, threshold=64,
                algorithm="prob-threshold", collision_model="2+",
            )
            for i in range(3)
        ]
        assert self._counters(requests) == (1, 0, 1)

    @pytest.mark.parametrize(
        "overrides",
        [{"algorithm": "abns"}, {"reliable": "krepeat"}],
        ids=["abns", "2tbins+krepeat"],
    )
    def test_scalar_group_moves_only_batches(self, overrides):
        requests = [_request(f"q{i}", seed=i, **overrides) for i in range(3)]
        assert self._counters(requests) == (1, 0, 0)


def _group_of(cells, *, n=64, **overrides):
    """Requests of at most 16 runs each, ``cells // n`` runs in total."""
    runs, requests = cells // n, []
    while runs > 0:
        take = min(16, runs)
        requests.append(
            _request(f"q{len(requests)}", seed=len(requests), runs=take, n=n,
                     **overrides)
        )
        runs -= take
    return requests


class TestInlineBound:
    """``runs_inline`` compares a group's cells with its path's bound."""

    @pytest.mark.parametrize("n", [64, 128])
    def test_kernel_bound(self, n):
        assert runs_inline(_group_of(INLINE_KERNEL_CELLS, n=n), vectorize=True)
        over = _group_of(INLINE_KERNEL_CELLS + n, n=n)
        assert not runs_inline(over, vectorize=True)

    @pytest.mark.parametrize(
        "overrides, vectorize",
        [({}, False), ({"algorithm": "abns"}, True), ({"reliable": "krepeat"}, True)],
        ids=["kernel-off", "abns", "2tbins+krepeat"],
    )
    def test_scalar_bound(self, overrides, vectorize):
        at = _group_of(INLINE_SCALAR_CELLS, **overrides)
        over = _group_of(INLINE_SCALAR_CELLS + 64, **overrides)
        assert runs_inline(at, vectorize=vectorize)
        assert not runs_inline(over, vectorize=vectorize)

    def test_declined_prob_threshold_counts_as_scalar(self):
        fields = {"n": 128, "x": 100, "threshold": 64, "algorithm": "prob-threshold"}
        probes = _group_of(INLINE_KERNEL_CELLS, **fields)
        assert runs_inline(probes, vectorize=True)
        capture = _group_of(INLINE_SCALAR_CELLS + 128, collision_model="2+", **fields)
        assert not runs_inline(capture, vectorize=True)
        at = _group_of(INLINE_SCALAR_CELLS, collision_model="2+", **fields)
        assert runs_inline(at, vectorize=True)

    def test_unbuildable_decider_counts_as_scalar(self):
        over = _group_of(INLINE_SCALAR_CELLS + 64, algorithm="nope")
        assert not runs_inline(over, vectorize=True)

    @pytest.mark.parametrize(
        "algorithm", SERVABLE + ("2tbins+krepeat", "2tbins+chernoff")
    )
    @pytest.mark.parametrize("collision_model", ["1+", "2+"])
    def test_path_matches_execute_group(self, algorithm, collision_model):
        """Between the two bounds only a kernel group runs inline, so the
        predicate's path is the one execute_group takes."""
        name, _, reliable = algorithm.partition("+")
        requests = _group_of(
            INLINE_SCALAR_CELLS + 64, n=64, algorithm=name,
            collision_model=collision_model, reliable=reliable or None,
        )
        outcomes = execute_group(requests)
        assert runs_inline(requests, vectorize=True) == outcomes[0].batched


class TestScalarDegradation:
    def test_reliable_requests_take_the_scalar_path(self):
        request = _request("q0", seed=5, runs=4, reliable="krepeat")
        [outcome] = execute_group([request])
        assert not outcome.batched
        assert outcome.exact
        assert len(outcome.decisions) == 4

    def test_reliable_confirmations_cost_more_queries(self):
        plain = execute_group([_request("q0", seed=5, runs=8)])[0]
        confirmed = execute_group(
            [_request("q0", seed=5, runs=8, reliable="krepeat")]
        )[0]
        assert sum(confirmed.queries) > sum(plain.queries)

    def test_scalar_only_algorithms_fall_back(self):
        request = _request("q0", seed=5, runs=3, algorithm="abns")
        [outcome] = execute_group([request])
        assert not outcome.batched
        assert outcome.exact


class TestFailureBlame:
    def test_scalar_failure_names_the_failing_runs_request(self, monkeypatch):
        from repro.core.abns import Abns

        original = Abns.decide
        calls = []

        def fail_third_run(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("scalar run failed")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Abns, "decide", fail_third_run)
        requests = [
            _request(f"q{i}", seed=i, runs=2, algorithm="abns") for i in range(3)
        ]
        with pytest.raises(QueryExecutionError) as info:
            execute_group(requests)
        # Runs 0-1 belong to q0, run 2 (the third) to q1.
        assert info.value.request_id == "q1"

    def test_kernel_failure_blames_the_lead(self, monkeypatch):
        from repro.core import TwoTBins

        def broken(self, batch):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(TwoTBins, "decide_batch", broken)
        requests = [_request(f"q{i}", seed=i, runs=2) for i in range(3)]
        with pytest.raises(QueryExecutionError) as info:
            execute_group(requests)
        assert info.value.request_id == "q0"


class TestGroupValidation:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            execute_group([])

    def test_mixed_coalesce_keys_rejected(self):
        with pytest.raises(ValueError, match="coalesce-key mismatch"):
            execute_group(
                [_request("a", seed=1), _request("b", seed=2, threshold=9)]
            )

    def test_probabilistic_scheme_reports_inexact(self):
        request = _request(
            "q0", seed=3, runs=2, n=128, x=100, threshold=64,
            algorithm="prob-threshold",
        )
        [outcome] = execute_group([request])
        assert not outcome.exact
