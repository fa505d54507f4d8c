"""The benchmark's four workloads: trace generation and engine/cluster set-up.

Every workload is llama-13b with the default ``EngineConfig`` (CA mode,
the model's default batch size), one process, one thread.  The workload
seed is the only input: the same seed gives the same trace, and the
program under test only ever sees the generated trace.

A :class:`Target` hides whether a workload runs one ``ServingEngine`` or a
``ClusterEngine``: set-up builds the trace and the target and schedules
the trace; the measured phase is ``target.sim.run()`` plus
``target.result()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cluster import ClusterConfig, ClusterEngine, RouterName
from repro.config import EngineConfig, HardwareConfig, StoreConfig
from repro.engine import ServingEngine
from repro.engine.metrics import TurnRecord
from repro.faults import FaultConfig, ReplicaCrash, ReplicaFaultSchedule
from repro.models import get_model
from repro.workload import Conversation, Trace, WorkloadSpec, generate_trace, stream_trace

GiB = 1 << 30
MODEL_NAME = "llama-13b"

# cluster-crash: the crash of benchmarks/bench_ext_chaos.py, with that
# bench's store sizes per replica (the cluster splits the capacity it is
# given evenly over the replicas).
N_REPLICAS = 3
CRASH_REPLICA = 1
CRASH_AT_S = 600.0
DOWNTIME_S = 120.0
REPLICA_DRAM_TOKENS = 120_000
REPLICA_SSD_TOKENS = 6_000_000
FAULT_SEED = 7

SLICES = 200
MIN_REPLAYS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a trace shape plus the system that serves it."""

    name: str
    n_sessions: int
    arrival_rate: float
    streamed: bool = False
    shared_prefix_fraction: float = 0.0
    shared_prefix_len: int = 0
    n_shared_prefixes: int = 1
    dram_gib: int | None = None
    cluster: bool = False
    #: Nominal host seconds of one replay (sets the replay count).
    replay_s: float = 5.0
    #: Set-ups timed together as one set-up sample (a streamed trace
    #: sets up in milliseconds).
    setup_batch: int = 1

    @property
    def warmup_turns(self) -> int:
        """Turns excluded from the simulated outcomes (about a sixth of the
        trace: one per session, as the mean session has 5.75 turns)."""
        return self.n_sessions

    @property
    def slice_s(self) -> float:
        """Simulated seconds per measured slice (reference-kernel calls run
        between slices): :data:`SLICES` slices over the arrival window."""
        return self.n_sessions / self.arrival_rate / SLICES

    def replays(self, seconds: float) -> int:
        """Untraced replays per run: as many as ``seconds`` holds at the
        nominal cost, so the count never depends on the measured speed."""
        return max(MIN_REPLAYS, round(seconds / self.replay_s))

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            n_sessions=self.n_sessions,
            arrival_rate=self.arrival_rate,
            seed=seed,
            shared_prefix_fraction=self.shared_prefix_fraction,
            shared_prefix_len=self.shared_prefix_len,
            n_shared_prefixes=self.n_shared_prefixes,
        )

    def make_trace(self, seed: int) -> Trace | Iterator[Conversation]:
        """The workload's trace: materialised, or a lazy arrival stream."""
        if self.streamed:
            return stream_trace(self.spec(seed))
        return generate_trace(self.spec(seed))

    def count_turns(self, seed: int) -> int:
        """Turns in the trace for ``seed`` (re-generates it; not timed)."""
        trace = self.make_trace(seed)
        if isinstance(trace, Trace):
            return trace.n_turns_total
        return sum(len(conv.turns) for conv in trace)

    def build(self) -> "Target":
        model = get_model(MODEL_NAME)
        hardware = HardwareConfig().for_model(model)
        engine_config = EngineConfig(batch_size=model.default_batch_size)
        if self.cluster:
            schedule = ReplicaFaultSchedule(
                crashes=(
                    ReplicaCrash(
                        at=CRASH_AT_S, replica=CRASH_REPLICA, downtime=DOWNTIME_S
                    ),
                )
            )
            cluster = ClusterEngine(
                model,
                cluster=ClusterConfig(
                    n_instances=N_REPLICAS, router=RouterName.AFFINITY
                ),
                hardware=hardware,
                engine_config=engine_config,
                store_config=StoreConfig(
                    dram_bytes=N_REPLICAS * REPLICA_DRAM_TOKENS * model.kv_bytes_per_token,
                    ssd_bytes=N_REPLICAS * REPLICA_SSD_TOKENS * model.kv_bytes_per_token,
                ),
                warmup_turns=self.warmup_turns,
                fault_config=FaultConfig(seed=FAULT_SEED, replica_schedule=schedule),
                sanitize=False,
            )
            return Target(cluster, cluster.engines)
        store_config = (
            StoreConfig()
            if self.dram_gib is None
            else StoreConfig(dram_bytes=self.dram_gib * GiB)
        )
        engine = ServingEngine(
            model,
            hardware=hardware,
            engine_config=engine_config,
            store_config=store_config,
            warmup_turns=self.warmup_turns,
            sanitize=False,
        )
        return Target(engine, [engine])


class Target:
    """The system a workload runs on: one engine, or a cluster of replicas."""

    def __init__(
        self, system: ServingEngine | ClusterEngine, engines: list[ServingEngine]
    ) -> None:
        self.system = system
        self.engines = engines
        self.sim = system.sim

    @property
    def is_cluster(self) -> bool:
        return isinstance(self.system, ClusterEngine)

    def schedule_trace(self, trace: Trace | Iterator[Conversation]) -> None:
        self.system.schedule_trace(trace)  # type: ignore[arg-type]

    def result(self):  # RunResult or ClusterResult
        return self.system.result()

    def completed_turns(self) -> int:
        return sum(len(engine.metrics.records) for engine in self.engines)

    def records(self) -> list[TurnRecord]:
        """Every completed turn's record, warm-up included."""
        return [record for engine in self.engines for record in engine.metrics.records]

    def stores(self):
        return [engine.store for engine in self.engines if engine.store is not None]


#: Why each workload was chosen is in NOTES.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chat-light",
            n_sessions=8000,
            arrival_rate=0.2,
            replay_s=4.0,
            setup_batch=2,
        ),
        Workload(
            name="chat-backlog",
            n_sessions=8000,
            arrival_rate=1.0,
            streamed=True,
            replay_s=6.0,
            setup_batch=100,
        ),
        Workload(
            name="share-spill",
            n_sessions=4000,
            arrival_rate=1.0,
            shared_prefix_fraction=0.5,
            shared_prefix_len=512,
            n_shared_prefixes=4,
            dram_gib=16,
            replay_s=2.7,
            setup_batch=4,
        ),
        Workload(
            name="cluster-crash",
            n_sessions=3000,
            arrival_rate=3.0,
            cluster=True,
            replay_s=2.3,
            setup_batch=4,
        ),
    )
}
