"""Golden digests of three full replays: the simulation core's oracle.

Each replay runs a fixed workload with a span tracer attached and hashes
everything the run exposes: ``repr`` of the result, the event count, the
final clock, and every span, counter sample and async span the tracer
recorded.  The digests were recorded on the simulator before its queue
was reduced to a single heap, so any change to dispatch order, event
count or timing anywhere in the engine, store or cluster shows up here.

The same digests must also come out when the replay runs under inputs
the model must ignore (DESIGN.md §12): another ``PYTHONHASHSEED`` (in a
subprocess), host clocks that return random values, reseeded global
``random`` and NumPy RNGs, and other GC thresholds.  That is the run-time
evidence that no host clock, global RNG, hash order or collector timing
reaches simulated state.

A digest mismatch means a run changed.  If the change is intended, record
the new digest and say in the commit why the run moved.

``python tests/sim/test_golden_digest.py`` prints all three digests.
"""

import gc
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterEngine
from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine
from repro.faults import fault_profile
from repro.models import MiB, get_model
from repro.obs import SpanTracer
from repro.workload import WorkloadSpec, generate_trace, stream_trace

#: 50 llama-13b sessions with 300 MiB of DRAM: spill, prefetch and eviction.
#: Re-recorded when a refused DRAM placement stopped evicting: session 23's
#: rejected save at 20.35 s no longer demotes an item, which session 26's
#: save demotes at 20.68 s instead.  Only that occupancy sample's time
#: moved; the result, the event count and every span hash the same.
TIGHT_DRAM_DIGEST = "08afec8dc2c0ebeb99c88be004d3c7fd5b91c9995a0b136243b11ed334563b2d"
#: 3 replicas under the ``chaos-cluster`` fault profile (replica 1 crashes).
#: Re-recorded when the crash failover fan-out became one event: the run's
#: event count fell from 8,486 to 8,485 and every other part hashed the same.
CHAOS_CLUSTER_DIGEST = "96f9935e0ab42dc63bc2ca68f7083fc916590ddaab1a113a62fd84c2886893d2"
#: 60 streamed sessions, half behind 2 shared templates, 600 MiB of DRAM,
#: under the ``chaos`` fault profile: shared-block lookup, registration and
#: copy-on-write forks, spills, and corrupt-miss fallbacks.
#: Re-recorded when a rejected tail save began releasing the session's
#: prefix reference: the leaked references had kept a template pinned
#: after its sessions ended, so the run's eviction and reuse moved
#: (spills 130 -> 154, corrupt misses 3 -> 1, registrations 4 -> 3).
#: Re-recorded when a refused DRAM placement stopped evicting and one that
#: cannot reach the headroom began evicting only the item's room: fewer
#: spills and prefetches (spills 154 -> 145, prefetches 115 -> 107, COW
#: forks 5 -> 3).
SHARED_CHAOS_DIGEST = "6c48ab8782c9bfa44ccb673048f0cb8d892ad0c9c464068472cf607ef8c2ef77"


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


def tight_dram_replay() -> str:
    engine = ServingEngine(
        get_model("llama-13b"),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=int(300 * MiB)),
    )
    tracer = SpanTracer()
    tracer.attach_engine(engine)
    result = engine.run(generate_trace(WorkloadSpec(n_sessions=50, seed=17)))
    return run_digest(result, engine.sim, tracer)


def chaos_cluster_replay() -> str:
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
    return run_digest(result, cluster.sim, tracer)


def shared_chaos_replay() -> str:
    engine = ServingEngine(
        get_model("llama-13b"),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=int(600 * MiB)),
        fault_config=fault_profile("chaos", seed=5),
    )
    tracer = SpanTracer()
    tracer.attach_engine(engine)
    spec = WorkloadSpec(
        n_sessions=60,
        seed=21,
        shared_prefix_fraction=0.5,
        shared_prefix_len=120,
        n_shared_prefixes=2,
    )
    result = engine.run(stream_trace(spec))
    stats = result.store_stats
    assert stats.shared_hits and stats.cow_forks and stats.corrupt_misses
    return run_digest(result, engine.sim, tracer)


#: Replay name -> (replay, its golden digest).
REPLAYS = {
    "tight-dram": (tight_dram_replay, TIGHT_DRAM_DIGEST),
    "chaos-cluster": (chaos_cluster_replay, CHAOS_CLUSTER_DIGEST),
    "shared-chaos": (shared_chaos_replay, SHARED_CHAOS_DIGEST),
}


def test_tight_dram_replay_digest():
    assert tight_dram_replay() == TIGHT_DRAM_DIGEST


def test_chaos_cluster_replay_digest():
    assert chaos_cluster_replay() == CHAOS_CLUSTER_DIGEST


def test_shared_chaos_replay_digest():
    assert shared_chaos_replay() == SHARED_CHAOS_DIGEST


@pytest.mark.parametrize("hash_seed", ["0", "1", "12345"])
def test_digests_ignore_hash_seed(hash_seed):
    """String and bytes hashes, and so set and dict-of-str order, change
    with ``PYTHONHASHSEED``, which only takes effect at start-up."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=src if not path else src + os.pathsep + path,
    )
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.split() == [
        f"{name}={digest}" for name, (_, digest) in REPLAYS.items()
    ]


def random_host_clocks(monkeypatch, request, rng):
    """Every host clock read returns a fresh random value."""
    for name in ("time", "perf_counter", "monotonic"):
        monkeypatch.setattr(time, name, lambda: rng.uniform(0.0, 1e9))
    for name in ("time_ns", "perf_counter_ns", "monotonic_ns"):
        monkeypatch.setattr(time, name, lambda: rng.randrange(10**18))


def reseeded_global_rngs(monkeypatch, request, rng):
    """The global ``random`` and NumPy RNGs start from another state."""
    state, np_state = random.getstate(), np.random.get_state()
    request.addfinalizer(lambda: random.setstate(state))
    request.addfinalizer(lambda: np.random.set_state(np_state))
    random.seed(rng.random())
    np.random.seed(rng.randrange(2**32))


def gc_thresholds(*thresholds):
    """Cyclic GC runs on other allocation counts."""

    def perturb(monkeypatch, request, rng):
        saved = gc.get_threshold()
        request.addfinalizer(lambda: gc.set_threshold(*saved))
        gc.set_threshold(*thresholds)

    return perturb


PERTURBATIONS = {
    "host-clocks": random_host_clocks,
    "global-rngs": reseeded_global_rngs,
    "gc-eager": gc_thresholds(1, 1, 1),
    "gc-lazy": gc_thresholds(1_000_000, 1_000, 1_000),
}


@pytest.mark.parametrize("replay", sorted(REPLAYS))
@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
def test_digest_ignores_perturbation(perturbation, replay, monkeypatch, request):
    PERTURBATIONS[perturbation](monkeypatch, request, random.Random(2024))
    run, digest = REPLAYS[replay]
    assert run() == digest


if __name__ == "__main__":
    for name, (run, _) in REPLAYS.items():
        print(f"{name}={run()}")
