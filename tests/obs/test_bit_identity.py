"""Instrumentation must be pure observation: bit-identical results.

The acceptance property of the whole observability layer — attaching a
span tracer and metrics probes must not change a single float of the
run's outcome.  Checked here by comparing complete
``RunResult`` / ``ClusterResult`` values (frozen dataclasses with value
equality) between instrumented and plain runs of identical workloads.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterConfig, ClusterEngine, RouterName
from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine
from repro.faults import (
    FaultConfig,
    ReplicaCrash,
    ReplicaDrain,
    ReplicaFaultSchedule,
)
from repro.models import MiB, get_model
from repro.obs import SpanTracer
from repro.workload import WorkloadSpec, generate_trace
from repro.workload.trace import Conversation, Trace, Turn

turn_strategy = st.builds(
    Turn,
    q_tokens=st.integers(min_value=1, max_value=2000),
    a_tokens=st.integers(min_value=1, max_value=800),
    think_time=st.floats(min_value=0.0, max_value=60.0),
)


@st.composite
def trace_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    conversations = []
    for sid in range(n):
        turns = draw(st.lists(turn_strategy, min_size=1, max_size=4))
        arrival = draw(st.floats(min_value=0.0, max_value=30.0))
        conversations.append(Conversation(sid, arrival, tuple(turns)))
    return Trace(conversations=conversations)


def run_engine(trace, instrumented, dram_mib=400):
    engine = ServingEngine(
        get_model("llama-13b"),
        engine_config=EngineConfig(batch_size=4),
        store_config=StoreConfig(dram_bytes=int(dram_mib * MiB)),
    )
    if instrumented:
        SpanTracer().attach_engine(engine)
    return engine.run(trace)


class TestEngineBitIdentity:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=trace_strategy())
    def test_instrumented_run_is_bit_identical(self, trace):
        assert run_engine(trace, False) == run_engine(trace, True)

    def test_identity_holds_under_store_pressure(self):
        """A tight DRAM budget exercises spill/prefetch span emission."""
        trace = generate_trace(WorkloadSpec(n_sessions=50, seed=17))
        assert run_engine(trace, False, dram_mib=300) == run_engine(
            trace, True, dram_mib=300
        )


class TestClusterBitIdentity:
    def run_cluster(self, instrumented, fault_config=None):
        cluster = ClusterEngine(
            get_model("llama-13b"),
            cluster=ClusterConfig(n_instances=2, router=RouterName.AFFINITY),
            engine_config=EngineConfig(batch_size=8),
            store_config=StoreConfig(),
            fault_config=fault_config,
        )
        if instrumented:
            SpanTracer().attach_cluster(cluster)
        trace = generate_trace(WorkloadSpec(n_sessions=60, seed=23))
        return cluster.run(trace)

    def test_instrumented_cluster_run_is_bit_identical(self):
        assert self.run_cluster(False) == self.run_cluster(True)

    def test_instrumented_chaos_run_is_bit_identical(self):
        """Crash/failover/drain span emission is pure observation too."""
        faults = FaultConfig(
            seed=3,
            replica_schedule=ReplicaFaultSchedule(
                crashes=(ReplicaCrash(at=20.0, replica=1, downtime=30.0),),
                drains=(ReplicaDrain(at=90.0, replica=0),),
            ),
        )
        assert self.run_cluster(False, faults) == self.run_cluster(
            True, faults
        )
