"""The algorithm registry must cover every decider the package exports.

Guards the api_redesign contract: any threshold-deciding class exported
from :mod:`repro.core` is reachable through :func:`repro.api.make_algorithm`
by name, reliable-wrapping works uniformly, the removed legacy aliases
fail loudly with the replacement spelled out, and the non-decider helpers
(counting, interval) are listed but correctly refuse decider-only
features.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.core as core
from repro.api import (
    ALGORITHMS,
    REGISTRY,
    RegistryFactory,
    algorithm_factory,
    make_algorithm,
)
from repro.core import (
    Abns,
    AdaptiveSplittingCounter,
    ChernoffConfirm,
    ExponentialIncrease,
    FourFoldIncrease,
    IntervalQuery,
    KRepeatConfirm,
    OracleBins,
    PauseAndContinue,
    ProbabilisticAbns,
    ProbabilisticThreshold,
    ReliableThreshold,
    ThresholdDecider,
    TwoTBins,
)
from repro.group_testing.model import OnePlusModel
from repro.group_testing.population import Population

#: Every decider class repro.core exports -> the registry name that
#: builds it.  A new exported decider must be added here AND to the
#: registry; the completeness test below enforces the pairing.
DECIDER_CLASSES = {
    TwoTBins: "2tbins",
    ExponentialIncrease: "exponential",
    Abns: "abns",
    ProbabilisticAbns: "prob-abns",
    PauseAndContinue: "pause-and-continue",
    FourFoldIncrease: "four-fold",
    OracleBins: "oracle",
    ProbabilisticThreshold: "prob-threshold",
}

DECIDER_NAMES = sorted(
    key for key, spec in REGISTRY.items() if spec.decider
)
HELPER_NAMES = sorted(
    key for key, spec in REGISTRY.items() if not spec.decider
)


def _instance(name):
    return make_algorithm(name, x=5)


class TestCompleteness:
    @pytest.mark.parametrize(
        "cls,name", sorted(DECIDER_CLASSES.items(), key=lambda kv: kv[1])
    )
    def test_every_exported_decider_is_registered(self, cls, name):
        algo = _instance(name)
        assert isinstance(algo, cls)
        assert isinstance(algo, ThresholdDecider)

    def test_no_unregistered_decider_classes(self):
        """Any core export with a decide() method must be in the map."""
        known = set(DECIDER_CLASSES) | {
            ReliableThreshold,  # reachable via the reliable- prefix
            AdaptiveSplittingCounter,  # helper: count(), not a decider
            IntervalQuery,  # helper: interval decide(), not a decider
        }
        for attr in core.__all__:
            obj = getattr(core, attr)
            if not isinstance(obj, type) or not hasattr(obj, "decide"):
                continue
            if getattr(obj, "_is_protocol", False) or obj.__name__ in (
                "ThresholdAlgorithm",
            ):
                continue  # the structural/abstract contracts themselves
            assert obj in known, (
                f"repro.core exports decider {obj.__name__} but it is "
                "not reachable from the registry"
            )

    def test_helpers_listed_but_not_deciders(self):
        assert HELPER_NAMES == ["counting", "interval"]
        assert isinstance(_instance("counting"), AdaptiveSplittingCounter)
        assert isinstance(_instance("interval"), IntervalQuery)


class TestReliableWrapping:
    @pytest.mark.parametrize("name", DECIDER_NAMES)
    def test_reliable_prefix_wraps_every_decider(self, name):
        algo = _instance(f"reliable-{name}")
        assert isinstance(algo, ReliableThreshold)
        assert algo.name.startswith("reliable(")

    def test_reliable_kwarg_shortcuts(self):
        krepeat = make_algorithm("2tbins", reliable="krepeat")
        chernoff = make_algorithm("2tbins", reliable="chernoff")
        assert isinstance(krepeat.policy, KRepeatConfirm)
        assert isinstance(chernoff.policy, ChernoffConfirm)

    def test_retry_policy_instance(self):
        algo = make_algorithm("2tbins", retry_policy=KRepeatConfirm(repeats=3))
        assert isinstance(algo, ReliableThreshold)
        assert algo.policy.repeats == 3

    def test_both_reliable_and_retry_policy_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            make_algorithm(
                "2tbins", reliable="krepeat", retry_policy=KRepeatConfirm()
            )

    def test_unknown_reliable_shortcut_rejected(self):
        with pytest.raises(ValueError, match="krepeat"):
            make_algorithm("2tbins", reliable="bogus")

    @pytest.mark.parametrize("name", HELPER_NAMES)
    def test_helpers_refuse_reliable(self, name):
        with pytest.raises(ValueError, match="not a threshold decider"):
            make_algorithm(name, reliable="krepeat")

    def test_wrapped_algorithm_still_decides(self):
        pop = Population.from_count(64, 20, np.random.default_rng(0))
        model = OnePlusModel(pop, np.random.default_rng(1))
        algo = make_algorithm("2tbins", reliable="chernoff")
        result = algo.decide(model, 8, np.random.default_rng(2))
        assert result.decision


class TestRemovedAliases:
    @pytest.mark.parametrize(
        "alias,replacement",
        [
            ("abns-t", "make_algorithm('abns', p0_multiple=1.0)"),
            ("abns-2t", "make_algorithm('abns', p0_multiple=2.0)"),
        ],
    )
    def test_alias_raises_naming_replacement(self, alias, replacement):
        with pytest.raises(KeyError) as excinfo:
            make_algorithm(alias)
        message = str(excinfo.value)
        assert "removed" in message
        assert replacement in message

    def test_unknown_name_lists_registry_only(self):
        with pytest.raises(KeyError) as excinfo:
            make_algorithm("nope")
        message = str(excinfo.value)
        assert "2tbins" in message
        assert "abns-t" not in message

    @pytest.mark.parametrize(
        "access",
        [
            lambda: ALGORITHMS["2tbins"],
            lambda: "2tbins" in ALGORITHMS,
            lambda: list(ALGORITHMS),
            lambda: len(ALGORITHMS),
            lambda: bool(ALGORITHMS),
        ],
        ids=["getitem", "contains", "iter", "len", "bool"],
    )
    def test_legacy_algorithms_table_raises(self, access):
        with pytest.raises(RuntimeError, match="make_algorithm"):
            access()


class TestFactories:
    def test_factory_is_picklable(self):
        factory = algorithm_factory("abns", p0_multiple=2.0)
        clone = pickle.loads(pickle.dumps(factory))
        assert isinstance(clone, RegistryFactory)
        assert clone(3).name == factory(3).name

    def test_factory_validates_eagerly(self):
        with pytest.raises(KeyError):
            algorithm_factory("nope")
        with pytest.raises(ValueError):
            algorithm_factory("2tbins", reliable="bogus")

    def test_factory_call_x_precedence(self):
        factory = algorithm_factory("oracle", x=2)
        assert isinstance(factory(), OracleBins)
        assert factory(7)._x == 7
        assert factory()._x == 2
