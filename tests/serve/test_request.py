"""Wire-level validation of :class:`repro.serve.request.QueryRequest`."""

from __future__ import annotations

import pytest

from repro.serve.request import (
    MAX_POPULATION,
    MAX_RUNS_PER_REQUEST,
    QueryRequest,
    RequestError,
)


def _wire(**overrides):
    base = {"id": "q1", "n": 64, "x": 20, "threshold": 8}
    base.update(overrides)
    return base


class TestFromWire:
    def test_minimal_request_fills_defaults(self):
        req = QueryRequest.from_wire(_wire())
        assert req.id == "q1"
        assert req.tenant == "anonymous"
        assert req.runs == 1
        assert req.algorithm == "2tbins"
        assert req.collision_model == "1+"
        assert req.seed == 0
        assert req.reliable is None

    def test_full_request_round_trips(self):
        req = QueryRequest.from_wire(
            _wire(
                tenant="acme",
                runs=32,
                seed=99,
                algorithm="exponential",
                collision_model="2+",
                reliable="krepeat",
            )
        )
        assert req.tenant == "acme"
        assert req.runs == 32
        assert req.seed == 99
        assert req.algorithm == "exponential"
        assert req.collision_model == "2+"
        assert req.reliable == "krepeat"

    @pytest.mark.parametrize("missing", ["id", "n", "x", "threshold"])
    def test_missing_required_fields(self, missing):
        wire = _wire()
        del wire[missing]
        with pytest.raises(RequestError) as info:
            QueryRequest.from_wire(wire)
        assert info.value.code == "missing_field"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"n": MAX_POPULATION + 1},
            {"x": -1},
            {"x": 65},
            {"threshold": -1},
            {"runs": 0},
            {"runs": MAX_RUNS_PER_REQUEST + 1},
            {"n": "64"},
            {"n": True},
            {"seed": 1.5},
            {"reliable": "always"},
            {"collision_model": "k+"},
            {"algorithm": "no-such-algo"},
            {"algorithm": "oracle"},
            {"algorithm": "counting"},
            {"seed": -1},
        ],
    )
    def test_out_of_bounds_and_mistyped_fields(self, overrides):
        with pytest.raises(RequestError):
            QueryRequest.from_wire(_wire(**overrides))

    def test_non_mapping_payload(self):
        with pytest.raises(RequestError) as info:
            QueryRequest.from_wire(["not", "a", "dict"])
        assert info.value.code == "bad_request"


class TestCoalesceKey:
    def test_seed_and_runs_do_not_split_groups(self):
        a = QueryRequest.from_wire(_wire(seed=1, runs=4))
        b = QueryRequest.from_wire(_wire(id="q2", seed=2, runs=9))
        assert a.coalesce_key == b.coalesce_key

    @pytest.mark.parametrize(
        "overrides, splits",
        [
            ({"n": 65}, True),
            # x does not split a group: the query program never reads
            # it, and a run's x enters only its population draw.
            ({"x": 21}, False),
            ({"threshold": 9}, True),
            ({"algorithm": "exponential"}, True),
            ({"collision_model": "2+"}, True),
            ({"reliable": "krepeat"}, True),
        ],
        ids=[f"overrides{i}" for i in range(6)],
    )
    def test_shape_changes_split_groups(self, overrides, splits):
        base = QueryRequest.from_wire(_wire())
        other = QueryRequest.from_wire(_wire(id="q2", **overrides))
        assert (base.coalesce_key != other.coalesce_key) == splits
