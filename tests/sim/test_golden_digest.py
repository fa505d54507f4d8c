"""Golden digests of two full replays: the simulation core's oracle.

Each test replays a fixed workload with a span tracer attached and hashes
everything the run exposes: ``repr`` of the result, the event count, the
final clock, and every span, counter sample and async span the tracer
recorded.  The digests were recorded on the simulator before its queue
was reduced to a single heap, so any change to dispatch order, event
count or timing anywhere in the engine, store or cluster shows up here.

A digest mismatch means a run changed.  If the change is intended, record
the new digest and say in the commit why the run moved.
"""

import hashlib

from repro.cluster import ClusterConfig, ClusterEngine
from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine
from repro.faults import fault_profile
from repro.models import MiB, get_model
from repro.obs import SpanTracer
from repro.workload import WorkloadSpec, generate_trace

#: 50 llama-13b sessions with 300 MiB of DRAM: spill, prefetch and eviction.
TIGHT_DRAM_DIGEST = "f6f9d112b7499c6c4f77d0abde5483d1a8bf2fa808d7eb8402a0aa217560c62d"
#: 3 replicas under the ``chaos-cluster`` fault profile (replica 1 crashes).
CHAOS_CLUSTER_DIGEST = "dfe603a048a2c83ca042c2f19bd85da7997d1a0ac9f797c4b01f24f024832df6"


def run_digest(result, sim, tracer) -> str:
    """sha256 over the result, the loop's counters and the whole trace."""
    h = hashlib.sha256()
    for part in (
        result,
        sim.events_processed,
        sim.now,
        tracer.spans,
        tracer.counters,
        tracer.async_spans,
    ):
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def test_tight_dram_replay_digest():
    engine = ServingEngine(
        get_model("llama-13b"),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=int(300 * MiB)),
    )
    tracer = SpanTracer()
    tracer.attach_engine(engine)
    result = engine.run(generate_trace(WorkloadSpec(n_sessions=50, seed=17)))
    assert run_digest(result, engine.sim, tracer) == TIGHT_DRAM_DIGEST


def test_chaos_cluster_replay_digest():
    cluster = ClusterEngine(
        get_model("llama-13b"),
        cluster=ClusterConfig(n_instances=3),
        engine_config=EngineConfig(batch_size=8),
        fault_config=fault_profile("chaos-cluster", seed=11),
    )
    tracer = SpanTracer()
    tracer.attach_cluster(cluster)
    trace = generate_trace(WorkloadSpec(n_sessions=120, arrival_rate=0.2, seed=29))
    result = cluster.run(trace)
    assert result.crashes == 1
    assert run_digest(result, cluster.sim, tracer) == CHAOS_CLUSTER_DIGEST
