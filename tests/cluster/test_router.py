"""Router unit tests: routing decisions from explicit load vectors."""

import pytest

from repro.cluster import (
    AffinityRouter,
    ClusterConfig,
    LeastLoadedRouter,
    NoRoutableReplica,
    Router,
    RouterName,
    RoundRobinRouter,
    make_router,
)


class StubEngine:
    """Just enough of a ServingEngine for routing: a load signal."""

    def __init__(self, load_tokens):
        self.load_tokens = load_tokens


def engines(*loads):
    return [StubEngine(load) for load in loads]


def all_up(index):
    return True


class TestRoundRobin:
    def test_strict_rotation(self):
        router = RoundRobinRouter(engines(0, 0, 0), all_up)
        picks = [router.route(session_id=9, home=None) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_ignores_home_and_load(self):
        router = RoundRobinRouter(engines(10_000, 0), all_up)
        assert router.route(1, home=1) == 0
        assert router.route(1, home=1) == 1


class TestLeastLoaded:
    def test_picks_minimum_load(self):
        router = LeastLoadedRouter(engines(500, 20, 300), all_up)
        assert router.route(1, home=0) == 1

    def test_ties_break_to_lowest_index(self):
        router = LeastLoadedRouter(engines(50, 50, 50), all_up)
        assert router.route(1, home=2) == 0


class TestAffinity:
    def test_new_session_goes_least_loaded(self):
        router = AffinityRouter(engines(100, 10, 200), all_up)
        assert router.route(1, home=None) == 1

    def test_returning_session_stays_home(self):
        router = AffinityRouter(engines(100, 10, 200), all_up, spill_tokens=1000)
        assert router.route(1, home=2) == 2

    def test_spills_when_home_overloaded(self):
        router = AffinityRouter(engines(5000, 10), all_up, spill_tokens=1000)
        assert router.route(1, home=0) == 1

    def test_spill_threshold_is_strict(self):
        router = AffinityRouter(engines(1010, 10), all_up, spill_tokens=1000)
        # imbalance == threshold: stay home (locality wins ties)
        assert router.route(1, home=0) == 0
        router = AffinityRouter(engines(1011, 10), all_up, spill_tokens=1000)
        assert router.route(1, home=0) == 1

    def test_rejects_negative_spill(self):
        with pytest.raises(ValueError):
            AffinityRouter(engines(0), all_up, spill_tokens=-1)


class TestRoutablePredicate:
    @pytest.mark.parametrize(
        "cls", [RoundRobinRouter, LeastLoadedRouter, AffinityRouter]
    )
    def test_skips_unroutable_replicas(self, cls):
        router = cls(engines(0, 500, 900), lambda index: index != 0)
        assert router.route(1, home=0) == 1

    @pytest.mark.parametrize(
        "cls", [RoundRobinRouter, LeastLoadedRouter, AffinityRouter]
    )
    def test_raises_when_none_routable(self, cls):
        router = cls(engines(0, 0), lambda index: False)
        with pytest.raises(NoRoutableReplica):
            router.route(1, home=None)


class TestMakeRouter:
    @pytest.mark.parametrize(
        "name, cls",
        [
            (RouterName.ROUND_ROBIN, RoundRobinRouter),
            (RouterName.LEAST_LOADED, LeastLoadedRouter),
            (RouterName.AFFINITY, AffinityRouter),
        ],
    )
    def test_builds_named_router(self, name, cls):
        router = make_router(name, engines(0, 0), all_up)
        assert isinstance(router, cls)
        assert isinstance(router, Router)
        assert router.name is name

    def test_spill_tokens_forwarded(self):
        router = make_router(RouterName.AFFINITY, engines(0), all_up, spill_tokens=7)
        assert router.spill_tokens == 7

    def test_empty_replica_list_rejected(self):
        with pytest.raises(ValueError):
            make_router(RouterName.ROUND_ROBIN, [], all_up)


class TestClusterConfigValidation:
    def test_defaults_valid(self):
        config = ClusterConfig()
        assert config.n_instances == 1
        assert config.router is RouterName.AFFINITY

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_instances": 0},
            {"net_bandwidth": 0.0},
            {"affinity_spill_tokens": -5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "failover_detection_s",
            "failover_backoff_s",
            "failover_backoff_cap_s",
            "drain_poll_s",
            "net_bandwidth",
        ],
    )
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ClusterConfig(**{field: value})
