"""Multi-instance cluster serving on one shared discrete-event simulator.

A :class:`ClusterEngine` runs N :class:`~repro.engine.ServingEngine`
replicas — each a full multi-GPU host with its own PCIe links, SSD and
AttentionStore partition — against a single simulated clock, fronted by a
pluggable session router.  Sessions arrive at the cluster, not a replica:
the router picks a replica per turn, and when it moves a returning session
away from the replica holding its KV cache the cluster either migrates the
cache over a modelled inter-host network link (affinity routing) or drops
the now-stale copy (locality-oblivious routers), preserving the invariant
that a session's KV lives in at most one store.

With ``n_instances=1`` every router degenerates to "route everything to
replica 0" and the cluster reproduces a standalone engine bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import TYPE_CHECKING, Callable

from ..config import EngineConfig, HardwareConfig, ServingMode, StoreConfig
from ..engine.engine import RunResult, ServingEngine
from ..engine.metrics import MetricsCollector, RunSummary
from ..engine.session import SessionState
from ..faults import FaultConfig, FaultInjector, ReplicaCrash, ReplicaDrain
from ..models import ModelSpec
from ..runner.seeds import seed_for
from ..sanitize import install_cluster, sanitize_enabled
from ..sim.channel import Channel, ChannelPair, FaultyTransfer
from ..sim.loop import Simulator
from ..store.item import Tier
from ..workload.trace import Conversation, Trace
from .config import ClusterConfig, RouterName
from .lifecycle import ReplicaLifecycle, ReplicaState
from .router import Action, NoRoutableReplica, Reason, Route, make_router, plan_route

if TYPE_CHECKING:
    from ..obs.spans import SpanTracer

#: A scheduled lifecycle event as ``(replica, order, event)``; ``order``
#: 0, 1 and 2 mark a crash's restart, a crash and a drain.
LifecycleEvent = tuple[int, int, ReplicaCrash | ReplicaDrain]


@dataclass(frozen=True, slots=True)
class ClusterResult:
    """Aggregate outcome of one cluster serving run.

    ``summary`` pools every replica's per-turn records into one
    cluster-level :class:`~repro.engine.RunSummary`; ``replicas`` keeps
    the per-replica results for imbalance analysis.
    """

    summary: RunSummary
    replicas: tuple[RunResult, ...]
    router: RouterName
    n_instances: int
    #: KV caches moved between replicas (affinity spills).
    migrations: int
    migrated_bytes: int
    #: Stale KV copies dropped on a locality-oblivious reroute.
    scatter_drops: int
    #: Bytes carried by the inter-host network link.
    net_bytes: int
    events_processed: int
    # Replica-lifecycle outcomes (all zero without a fault schedule):
    #: Scheduled replica crashes that actually fired.
    crashes: int = 0
    restarts: int = 0
    #: Graceful drains started.
    drains: int = 0
    #: In-flight turns interrupted by a crash (each is later failed over
    #: or parked and resubmitted — lost work, never a lost answer).
    lost_turns: int = 0
    #: Sessions re-homed to a healthy replica after a crash.
    failovers: int = 0
    #: Routing retries while no replica was routable.
    failover_retries: int = 0
    #: Turns that waited out a downtime for naive restart (failover off).
    parked_turns: int = 0
    #: History tokens recomputed because their session failed over.
    failover_recompute_tokens: int = 0
    #: Seconds of replica downtime over completed crash/restart cycles.
    total_downtime_s: float = 0.0

    @property
    def mttr_s(self) -> float:
        """Mean time to recovery per completed crash/restart cycle."""
        return self.total_downtime_s / self.restarts if self.restarts else 0.0

    @property
    def hit_rate(self) -> float:
        """Cluster-wide AttentionStore hit rate over lookups."""
        return self.summary.hit_rate

    @property
    def aggregate_prefill_throughput(self) -> float:
        """Prompt tokens served per *wall-clock* second across the cluster.

        Unlike :attr:`RunSummary.prefill_throughput` (tokens per GPU-busy
        second, a per-device efficiency figure), this scales with replica
        count and is the scaling metric of the cluster experiment.
        """
        if self.summary.makespan <= 0:
            return 0.0
        return self.summary.prompt_tokens_total / self.summary.makespan


class ClusterEngine:
    """N serving-engine replicas behind a session router, one event loop."""

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterConfig | None = None,
        hardware: HardwareConfig | None = None,
        engine_config: EngineConfig | None = None,
        store_config: StoreConfig | None = None,
        warmup_turns: int = 0,
        fault_config: FaultConfig | None = None,
        streaming_metrics: bool = False,
        sanitize: bool | None = None,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        n = self.cluster.n_instances
        self.model = model
        hardware = hardware or HardwareConfig().for_model(model)
        engine_config = engine_config or EngineConfig(
            batch_size=model.default_batch_size
        )
        if engine_config.mode is ServingMode.CACHED:
            base_store: StoreConfig | None = store_config or StoreConfig()
        else:
            base_store = None

        # The replica crash/drain schedule is cluster-level: events are
        # validated against the replica count here and stripped from the
        # per-replica configs below (a lone engine has nothing to crash).
        schedule = fault_config.replica_schedule if fault_config is not None else None
        if schedule is not None and not schedule.enabled:
            schedule = None
        if schedule is not None:
            schedule.validate_for(n)
        self.schedule = schedule

        self.sim = Simulator()
        self.sanitized = sanitize if sanitize is not None else sanitize_enabled()
        self.turn_counter = count()
        # One shared inter-host link: concurrent migrations contend on it.
        self.net = Channel("cluster-net", self.cluster.net_bandwidth)
        self.engines: list[ServingEngine] = []
        for i in range(n):
            replica_faults = fault_config
            if fault_config is not None:
                seed = fault_config.seed
                if n > 1:
                    # Independent fault streams per host, still
                    # deterministic.  Hash-derived so replica seeds are
                    # uncorrelated (seed+i gave neighbouring replicas
                    # overlapping decision streams); a single instance
                    # keeps the base seed, bit-identical to a standalone
                    # engine.
                    seed = seed_for(fault_config.seed, f"replica-{i}")
                replica_faults = replace(
                    fault_config, seed=seed, replica_schedule=None
                )
            self.engines.append(
                ServingEngine(
                    model,
                    hardware=hardware,
                    engine_config=engine_config,
                    store_config=self._partition_store(base_store, n),
                    warmup_turns=warmup_turns,
                    fault_config=replica_faults,
                    sim=self.sim,
                    pcie_h2d=Channel(f"pcie-h2d-{i}", hardware.pcie_bandwidth),
                    pcie_d2h=Channel(f"pcie-d2h-{i}", hardware.pcie_bandwidth),
                    ssd=Channel("ssd", hardware.ssd_bandwidth),
                    turn_counter=self.turn_counter,
                    streaming_metrics=streaming_metrics,
                    name=f"replica-{i}",
                    sanitize=self.sanitized,
                )
            )
        for engine in self.engines:
            engine.next_turn_hook = self._route_next_turn
        # Replica health; the router only ever returns UP replicas.
        self.lifecycles = [ReplicaLifecycle() for _ in range(n)]
        self.router = make_router(
            self.cluster.router,
            self.engines,
            lambda index: self.lifecycles[index].routable,
            spill_tokens=self.cluster.affinity_spill_tokens,
        )
        # The shared inter-host link draws faults from its own
        # hash-seeded stream — it belongs to no single host.
        self.net_faults: FaultInjector | None = None
        if fault_config is not None and fault_config.net_fault_rate > 0.0:
            self.net_faults = FaultInjector(
                replace(
                    fault_config,
                    seed=seed_for(fault_config.seed, "cluster-net"),
                    replica_schedule=None,
                )
            )
            self.net.fault_hook = self.net_faults
        # Lifecycle counters (see ClusterResult for meanings).
        self.drains = 0
        self.lost_turns = 0
        self.failovers = 0
        self.failover_retries = 0
        self.parked_turns = 0
        # Turns waiting out a downtime (naive restart mode), as
        # (session_id, original arrival time) in interruption order.
        self._parked: list[tuple[int, float]] = []
        # Optional span tracer (repro.obs): installed from outside via
        # SpanTracer.attach_cluster; pure observation of migrations.
        self.tracer: "SpanTracer | None" = None
        if self.sanitized:
            install_cluster(self)

    def _partition_store(
        self, base: StoreConfig | None, n_instances: int
    ) -> StoreConfig | None:
        """Shard the store capacity evenly across replicas."""
        if base is None or n_instances == 1 or not self.cluster.partition_store:
            return base
        return replace(
            base,
            dram_bytes=base.dram_bytes // n_instances,
            ssd_bytes=base.ssd_bytes // n_instances,
            hbm_cache_bytes=base.hbm_cache_bytes // n_instances,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> ClusterResult:
        """Replay ``trace`` against the cluster and return pooled results."""
        self.schedule_trace(trace)
        self.sim.run()
        return self.result()

    def schedule_trace(self, trace: Trace) -> None:
        """Schedule every session arrival (routing happens at arrival time,
        so load-based routers see the loads of the moment, not of time 0)."""
        if len(trace) == 0:
            raise ValueError("cannot run an empty trace")
        for conv in trace:
            self.sim.at(conv.arrival_time, self._arrival_starter(conv))
        for engine in self.engines:
            engine.schedule_maintenance()
        self._schedule_lifecycle()

    def result(self) -> ClusterResult:
        """Aggregate per-replica and cluster-level results after the run."""
        replicas = tuple(engine.result() for engine in self.engines)
        merged = MetricsCollector.merged([e.metrics for e in self.engines])
        store_stats = [r.store_stats for r in replicas if r.store_stats is not None]
        return ClusterResult(
            summary=merged.summarise(),
            replicas=replicas,
            router=self.cluster.router,
            n_instances=self.cluster.n_instances,
            migrations=sum(s.migrations_in for s in store_stats),
            migrated_bytes=sum(s.migrated_bytes_out for s in store_stats),
            scatter_drops=sum(s.scatter_drops for s in store_stats),
            net_bytes=self.net.bytes_moved,
            events_processed=self.sim.events_processed,
            crashes=sum(life.crashes for life in self.lifecycles),
            restarts=sum(life.restarts for life in self.lifecycles),
            drains=self.drains,
            lost_turns=self.lost_turns,
            failovers=self.failovers,
            failover_retries=self.failover_retries,
            parked_turns=self.parked_turns,
            failover_recompute_tokens=sum(
                engine.failover_recompute_tokens for engine in self.engines
            ),
            total_downtime_s=sum(
                life.total_downtime for life in self.lifecycles
            ),
        )

    # ------------------------------------------------------------------
    # Routing: ask the router, let plan_route decide, apply the decision
    # ------------------------------------------------------------------
    def _ask(self, session_id: int, home: int | None) -> int | None:
        """The router's pick, or None when no replica is routable."""
        try:
            return self.router.route(session_id, home)
        except NoRoutableReplica:
            return None

    def _owner(self, session_id: int) -> int:
        """The replica holding live session ``session_id``."""
        for index, engine in enumerate(self.engines):
            if session_id in engine.sessions:
                return index
        raise KeyError(f"session {session_id} is not live on any replica")

    def _arrival_starter(self, conv: Conversation) -> Callable[[], None]:
        def start() -> None:
            self._start_arrival(conv, 1)

        return start

    def _start_arrival(self, conv: Conversation, attempt: int) -> None:
        answer = self._ask(conv.session_id, None)
        route = plan_route(Reason.ARRIVAL, None, None, answer, attempt, self.cluster)
        if route.action is Action.RETRY:
            # Every replica is down or draining: retry until one is back.
            self.failover_retries += 1
            self.sim.after(
                route.delay, lambda: self._start_arrival(conv, attempt + 1)
            )
            return
        self.engines[route.target].start_session(conv)

    def _route_next_turn(self, source: ServingEngine, session: SessionState) -> None:
        """Route one returning session (installed as every replica's
        ``next_turn_hook``, firing when the user's think time elapses).

        The session may have been re-homed since ``source`` served its
        previous turn (a failover or drain while the user was thinking),
        so routing starts from its current owner.  A home that crashed
        meanwhile is known to be down at once: the router is not asked.
        """
        session_id = session.session_id
        home = self._owner(session_id)
        state = self.lifecycles[home].state
        answer = None if state is ReplicaState.DOWN else self._ask(session_id, home)
        route = plan_route(Reason.NEXT_TURN, state, home, answer, 1, self.cluster)
        action = route.action
        if action is Action.STAY or action is Action.REHOME:
            self._rehome(route, session_id, home).submit_next_turn(session)
        elif action is Action.RETRY:
            self.failover_retries += 1
            self.sim.after(
                route.delay, lambda: self._route_next_turn(source, session)
            )
        elif action is Action.FAILOVER:
            self._failover_turns([(session_id, self.sim.now)], self.sim.now, 1)
        else:
            self._parked.append((session_id, self.sim.now))
            self.parked_turns += 1

    def _rehome(self, route: Route, session_id: int, home: int) -> ServingEngine:
        """Hand ``session_id`` from ``home`` to ``route.target`` with its
        KV, or drop the stale copy; returns the serving replica."""
        owner = self.engines[home]
        if route.target == home:
            return owner
        target = self.engines[route.target]
        target.adopt_session(owner.release_session(session_id))
        self._move_kv(owner, target, session_id, route.migrate)
        return target

    def _move_kv(
        self,
        source: ServingEngine,
        target: ServingEngine,
        session_id: int,
        migrate: bool,
    ) -> None:
        """Reconcile KV placement after a session changed replicas.

        With ``migrate`` the cache crosses the inter-host link (disk items
        are staged through the source SSD first); otherwise the stale copy
        is dropped — a truncation on the new replica would silently
        invalidate any remote leftover, so at most one store may ever hold
        a session's KV.
        """
        if source.store is None or target.store is None:
            return
        if not migrate:
            source.store.discard_stale(session_id)
            return
        # The session's segments move: its tail always, and the prefix it
        # reads only when the target lacks a copy of the same content hash
        # (the whole point of content addressing — the second migration is
        # free).
        prefix = source.store.prefix_of(session_id)
        item = source.store.extract(session_id)
        if item is None:
            return
        shared_hash: str | None = None
        shared_tokens = 0
        move_bytes = item.n_bytes
        if prefix is not None and prefix.content_hash is not None:
            shared_hash, shared_tokens = prefix.content_hash, prefix.n_tokens
            if not target.store.has_shared(shared_hash):
                move_bytes += prefix.n_bytes
        now = self.sim.now
        link: Channel | ChannelPair = self.net
        if item.tier is Tier.DISK:
            link = ChannelPair(source.ssd, self.net)
        try:
            done = link.transfer(now, move_bytes)
        except FaultyTransfer:
            # The migrating copy is lost in transit; the next turn
            # recomputes its history at the target (graceful degradation).
            source.store.record_migration_loss()
            return
        if self.tracer is not None:
            self.tracer.span(
                "migrate",
                "cluster",
                now,
                done,
                lane="cluster-net",
                track="cluster",
                args={
                    "session": session_id,
                    "from": source.name,
                    "to": target.name,
                    "tokens": item.n_tokens,
                    "bytes": move_bytes,
                },
            )
        target.store.admit_migrated(
            session_id,
            item.n_tokens,
            now,
            ready_at=done,
            position_decoupled=item.position_decoupled,
            queue=target.queue,
            shared_hash=shared_hash,
            shared_tokens=shared_tokens,
        )

    # ------------------------------------------------------------------
    # Replica lifecycle (crash / restart / drain)
    # ------------------------------------------------------------------
    def _schedule_lifecycle(self) -> None:
        """Arm the run's replica crash/restart/drain events.

        Events that share an instant fold into one event, which handles
        them in replica order (one replica's restart, then its crash,
        then its drain): a run must not depend on how same-time events
        are tie-broken (DESIGN.md §12).
        """
        if self.schedule is None:
            return
        instants: dict[float, list[LifecycleEvent]] = {}
        for crash in self.schedule.crashes:
            instants.setdefault(crash.restart_at, []).append((crash.replica, 0, crash))
            instants.setdefault(crash.at, []).append((crash.replica, 1, crash))
        for drain in self.schedule.drains:
            instants.setdefault(drain.at, []).append((drain.replica, 2, drain))
        for at, events in instants.items():
            events.sort(key=lambda e: e[:2])
            self.sim.at(at, lambda events=events: self._lifecycle_instant(events))

    def _lifecycle_instant(self, events: list[LifecycleEvent]) -> None:
        """Apply one instant's lifecycle events in order.

        With failover on, the turns every crash here interrupted are
        re-routed by one event, in the same order: per-crash events would
        all share a timestamp, and their routing decisions depend on each
        other.
        """
        now = self.sim.now
        orphaned: list[tuple[int, float]] = []
        for _, order, event in events:
            if isinstance(event, ReplicaDrain):
                self._begin_drain(event.replica)
            elif order == 0:
                self._restart_replica(event)
            else:
                orphaned.extend(self._crash_replica(event))
        if orphaned:
            self.sim.after(
                self.cluster.failover_detection_s,
                lambda: self._failover_turns(orphaned, now, 1),
            )

    def _crash_replica(self, crash: ReplicaCrash) -> list[tuple[int, float]]:
        """Kill one replica: volatile KV and in-flight turns are gone.

        Returns the interrupted ``(session_id, arrival_time)`` turns to
        fail over to healthy peers after the detection delay; with
        failover disabled they are parked until the replica restarts
        instead.  Sessions mid-think keep their timers; their next turn
        is handled by :meth:`_route_next_turn` when it fires.
        """
        index = crash.replica
        life = self.lifecycles[index]
        if life.state in (ReplicaState.DOWN, ReplicaState.STOPPED):
            return []  # already dead, or drained out of the cluster
        now = self.sim.now
        life.crash(now)
        interrupted = self.engines[index].crash(now)
        self.lost_turns += len(interrupted)
        if self.tracer is not None:
            self.tracer.span(
                "crash",
                "cluster",
                now,
                crash.restart_at,
                lane="lifecycle",
                track="cluster",
                args={
                    "replica": index,
                    "lost_turns": len(interrupted),
                    "downtime_s": crash.downtime,
                },
            )
        turns = [(r.session_id, r.arrival_time) for r in interrupted]
        if self.cluster.failover:
            return turns
        self._parked.extend(turns)
        self.parked_turns += len(turns)
        return []

    def _failover_turns(
        self,
        turns: list[tuple[int, float]],
        orphaned_at: float,
        attempt: int,
    ) -> None:
        """Re-route ``(session_id, arrival_time)`` turns orphaned at
        ``orphaned_at``, in list order.

        Turns that find no routable replica retry together, still in
        order, as one event after a capped exponential backoff.
        """
        retry: list[tuple[int, float]] = []
        delay = 0.0
        for turn in turns:
            route = self._failover_turn(*turn, orphaned_at, attempt)
            if route.action is Action.RETRY:
                retry.append(turn)
                delay = route.delay
        if retry:
            self.sim.after(
                delay, lambda: self._failover_turns(retry, orphaned_at, attempt + 1)
            )

    def _failover_turn(
        self,
        session_id: int,
        arrival_time: float,
        orphaned_at: float,
        attempt: int,
    ) -> Route:
        """Re-route one turn orphaned by a crash; returns the decision (a
        retry is counted here and rescheduled by :meth:`_failover_turns`).

        The turn keeps its original arrival time, so its recorded queueing
        delay spans the outage.  On a new home it recomputes the history
        and the old home's copy is dropped, whether parked offline or
        re-admitted by a restart (exactly one copy).  If the home restarts
        before any peer frees up, the turn is served there normally
        against the re-admitted SSD copy.
        """
        home = self._owner(session_id)
        state = self.lifecycles[home].state
        answer = self._ask(session_id, None)
        route = plan_route(Reason.FAILOVER, state, home, answer, attempt, self.cluster)
        if route.action is Action.RETRY:
            self.failover_retries += 1
            return route
        session = self.engines[home].sessions[session_id]
        if route.failover:
            self.failovers += 1
            if self.tracer is not None:
                self.tracer.span(
                    "failover",
                    "cluster",
                    orphaned_at,
                    self.sim.now,
                    lane="lifecycle",
                    track="cluster",
                    args={
                        "session": session_id,
                        "from": home,
                        "to": route.target,
                        "retries": attempt - 1,
                    },
                )
        target = self._rehome(route, session_id, home)
        target.submit_next_turn(
            session, failover=route.failover, arrival_time=arrival_time
        )
        return route

    def _restart_replica(self, crash: ReplicaCrash) -> None:
        """Bring a crashed replica back: re-admit its surviving SSD KV
        (sessions that failed over meanwhile dropped theirs) and resubmit
        any turns parked through the downtime."""
        index = crash.replica
        life = self.lifecycles[index]
        if life.state is not ReplicaState.DOWN:
            return  # the matching crash was skipped
        now = self.sim.now
        life.restart(now)
        engine = self.engines[index]
        engine.restart(now)
        sessions = engine.sessions
        for session_id, arrival in self._parked:
            if session_id in sessions:
                engine.submit_next_turn(sessions[session_id], arrival_time=arrival)
        self._parked = [turn for turn in self._parked if turn[0] not in sessions]

    def _begin_drain(self, index: int) -> None:
        """Start a graceful drain: stop admitting, then migrate out."""
        life = self.lifecycles[index]
        if life.state is not ReplicaState.UP:
            return  # down or already stopped; nothing to drain
        life.begin_drain(self.sim.now)
        self.drains += 1
        self._drain_step(index)

    def _drain_step(self, index: int) -> None:
        """One drain pass: migrate idle sessions out; poll until empty.

        Sessions with an in-flight turn finish it here first (a draining
        replica keeps serving what it admitted — it just takes no more);
        the periodic poll catches them once idle.  When no live session
        remains, the leftover KV is dropped and the replica stops.
        """
        life = self.lifecycles[index]
        if life.state is not ReplicaState.DRAINING:
            return  # crashed mid-drain; the restart cancelled the drain
        engine = self.engines[index]
        busy = engine.active_sessions
        for session_id in sorted(engine.sessions):
            if session_id in busy or engine.queue.position(session_id) is not None:
                continue
            answer = self._ask(session_id, None)
            route = plan_route(Reason.DRAIN, life.state, index, answer, 1, self.cluster)
            if route.action is Action.END_PASS:
                break  # no healthy peer right now; retry at the next poll
            self._rehome(route, session_id, index)
        if engine.sessions:
            self.sim.after(
                self.cluster.drain_poll_s, lambda: self._drain_step(index)
            )
            return
        if engine.store is not None:
            engine.store.decommission()
        life.finish_drain()
        if self.tracer is not None:
            self.tracer.span(
                "drain",
                "cluster",
                life.drain_started_at or 0.0,
                self.sim.now,
                lane="lifecycle",
                track="cluster",
                args={"replica": index},
            )
