"""Results must not depend on the order of events that share a timestamp.

Each canonical trace is replayed once with the simulator's own tie-break
(scheduling order) and then under several seeded random tie orders (the
``tie_shuffle`` fixture).  ``repr`` of the result must come out the same
every time: a difference means some handler observes which of two
same-time events ran first, a choice the model does not mean to make
(DESIGN.md §12).
"""

from functools import cache

import pytest

from repro.cluster import ClusterConfig, ClusterEngine
from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine
from repro.faults import FaultConfig, ReplicaCrash, ReplicaFaultSchedule, fault_profile
from repro.models import MiB, get_model
from repro.workload import WorkloadSpec, generate_trace

MODEL = get_model("llama-13b")
SEEDS = range(5)


def tight_dram_ca():
    engine = ServingEngine(
        MODEL,
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=int(300 * MiB)),
    )
    return engine.run(generate_trace(WorkloadSpec(n_sessions=50, seed=17)))


def recompute():
    engine = ServingEngine(
        MODEL, engine_config=EngineConfig.recompute_baseline(batch_size=8)
    )
    return engine.run(generate_trace(WorkloadSpec(n_sessions=50, seed=17)))


def sharing():
    """Half the sessions behind two shared templates, DRAM small enough
    that shared blocks spill to SSD."""
    engine = ServingEngine(
        MODEL,
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=int(600 * MiB)),
    )
    trace = generate_trace(
        WorkloadSpec(
            n_sessions=60,
            seed=21,
            shared_prefix_fraction=0.5,
            shared_prefix_len=120,
            n_shared_prefixes=2,
        )
    )
    return engine.run(trace)


def chaos_cluster():
    cluster = ClusterEngine(
        MODEL,
        cluster=ClusterConfig(n_instances=3),
        engine_config=EngineConfig(batch_size=8),
        fault_config=fault_profile("chaos-cluster", seed=11),
    )
    trace = generate_trace(WorkloadSpec(n_sessions=120, arrival_rate=0.2, seed=29))
    return cluster.run(trace)


def all_replicas_down():
    """Both replicas crash together, so failed-over turns, arrivals and
    returning sessions all wait out the outage on the retry path."""
    schedule = ReplicaFaultSchedule(
        crashes=(
            ReplicaCrash(at=30.0, replica=0, downtime=30.0),
            ReplicaCrash(at=35.0, replica=1, downtime=20.0),
        )
    )
    cluster = ClusterEngine(
        MODEL,
        cluster=ClusterConfig(n_instances=2),
        engine_config=EngineConfig(batch_size=8),
        fault_config=FaultConfig(seed=3, replica_schedule=schedule),
    )
    trace = generate_trace(WorkloadSpec(n_sessions=80, arrival_rate=4.0, seed=7))
    return cluster.run(trace)


def simultaneous_crashes():
    """Two of three replicas crash at one instant and restart together.
    The instant's lifecycle events fold into one, so the two crashes
    fail their turns over in one event, in replica order, not in two
    tied ones."""
    schedule = ReplicaFaultSchedule(
        crashes=(
            ReplicaCrash(at=30.0, replica=0, downtime=20.0),
            ReplicaCrash(at=30.0, replica=1, downtime=20.0),
        )
    )
    cluster = ClusterEngine(
        MODEL,
        cluster=ClusterConfig(n_instances=3),
        engine_config=EngineConfig(batch_size=8),
        fault_config=FaultConfig(seed=3, replica_schedule=schedule),
    )
    trace = generate_trace(WorkloadSpec(n_sessions=80, arrival_rate=4.0, seed=7))
    return cluster.run(trace)


TRACES = {
    "tight-dram-ca": tight_dram_ca,
    "recompute": recompute,
    "sharing": sharing,
    "chaos-cluster": chaos_cluster,
    "all-replicas-down": all_replicas_down,
    "simultaneous-crashes": simultaneous_crashes,
}


@cache
def scheduling_order_repr(name: str) -> str:
    return repr(TRACES[name]())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(TRACES))
def test_result_ignores_tie_order(name, seed, tie_shuffle):
    expected = scheduling_order_repr(name)
    tie_shuffle(seed)
    assert repr(TRACES[name]()) == expected


def test_all_replicas_down_run_retries():
    """The outage run does exercise the retry path it is meant to cover."""
    result = all_replicas_down()
    assert result.crashes == 2
    assert result.failover_retries > 0
    assert result.failovers > 0


def test_simultaneous_crashes_fail_over():
    """The unstaggered run does crash both replicas and fail turns over."""
    result = simultaneous_crashes()
    assert result.crashes == 2
    assert result.restarts == 2
    assert result.failovers > 0
