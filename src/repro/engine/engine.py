"""The LLM serving engine simulation: RE baseline and CachedAttention.

One :class:`ServingEngine` replays a conversation trace against a single
model deployment.  It combines:

* a continuous-batching executor (prefill blocks decoding; decode advances
  iteration-by-iteration for the whole batch — Orca-style);
* per-turn context-window truncation (token truncation for RE, decoupled
  KV truncation for CA, invalidation for the OF baseline);
* in CA mode, an :class:`~repro.store.AttentionStore` holding inactive
  sessions' KV caches, with scheduler-aware prefetch/eviction reading the
  engine's job queue, layer-wise pre-loading of cache hits, and
  asynchronous write-back of finished turns' KV.

Timing comes from :class:`~repro.hardware.perf.PerfModel`; transfers
contend on shared PCIe and SSD :class:`~repro.sim.Channel` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import count
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..config import (
    EngineConfig,
    HardwareConfig,
    ServingMode,
    StoreConfig,
    TruncationPolicyName,
)
from ..faults import FaultConfig, FaultInjector
from ..hardware.perf import PerfModel
from ..models import ModelSpec
from ..sanitize import (
    check_gpu_busy,
    check_overlap_envelope,
    check_save_blocking_envelope,
    check_saved_bytes,
    check_turn_plan,
    install_engine,
    sanitize_enabled,
)
from ..sim.channel import Channel, ChannelPair, FaultyTransfer
from ..sim.loop import Simulator
from ..store.attention_store import (
    AttentionStore,
    LookupResult,
    LookupStatus,
    StoreStats,
)
from ..store.item import Tier
from ..store.sharing import SharedLookup, shared_prefix_hash
from ..workload.trace import Conversation, Trace
from .batching import ActiveJob, BatchState
from .continuations import (
    DecodeChunkDone,
    FetchDone,
    NextTurnTimer,
    PrefillSliceDone,
    SaveBlockDone,
    SessionStart,
    StreamArrival,
    TierLoss,
    TtlSweep,
)
from .metrics import MetricsCollector, RunSummary, TurnOutcome, TurnRecord
from .overlap import (
    async_save_blocking_time,
    layerwise_prefill_time,
    no_preload_prefill_time,
    overlap_exposure,
    sync_save_blocking_time,
)
from .queue import SchedulerQueue
from .request import TurnRequest
from .session import SessionState
from .truncation import (
    TruncationOutcome,
    TurnPlan,
    apply_context_window,
    clamp_decode_tokens,
    plan_turn,
)

if TYPE_CHECKING:
    from ..obs.spans import SpanTracer


@dataclass(frozen=True, slots=True)
class RunResult:
    """Everything a benchmark needs from one serving run."""

    summary: RunSummary
    store_stats: StoreStats | None
    pcie_bytes: int
    ssd_bytes: int
    events_processed: int
    model_name: str
    mode: ServingMode

    @property
    def is_cached(self) -> bool:
        return self.mode is ServingMode.CACHED


class ServingEngine:
    """Simulated LLM serving engine for multi-turn conversation traces."""

    TTL_SWEEP_INTERVAL = 120.0

    def __init__(
        self,
        model: ModelSpec,
        hardware: HardwareConfig | None = None,
        engine_config: EngineConfig | None = None,
        store_config: StoreConfig | None = None,
        warmup_turns: int = 0,
        fault_config: FaultConfig | None = None,
        *,
        streaming_metrics: bool = False,
        sim: Simulator | None = None,
        pcie_h2d: Channel | None = None,
        pcie_d2h: Channel | None = None,
        ssd: Channel | None = None,
        turn_counter: Iterator[int] | None = None,
        name: str = "engine",
        sanitize: bool | None = None,
    ) -> None:
        self.model = model
        self.name = name
        self.hardware = hardware or HardwareConfig().for_model(model)
        self.config = engine_config or EngineConfig(
            batch_size=model.default_batch_size
        )
        self.perf = PerfModel(model, self.hardware)
        # A cluster injects one shared Simulator (and per-replica channels)
        # so N replicas advance on a single event loop; a standalone engine
        # builds its own, which is behaviourally identical to the original
        # engine-owned construction.
        self.sim = sim if sim is not None else Simulator()
        # The engine reads the current time on every scheduling decision;
        # going through the simulator's ``now`` property adds a descriptor
        # hop per read, so keep a direct reference to the shared clock.
        self._clock = self.sim.clock
        # PCIe is full duplex: host->device KV loads and device->host KV
        # saves ride independent directions ("dedicated CUDA streams",
        # Section 4.1), so they get separate channels.
        self.pcie_h2d = pcie_h2d or Channel("pcie-h2d", self.hardware.pcie_bandwidth)
        self.pcie_d2h = pcie_d2h or Channel("pcie-d2h", self.hardware.pcie_bandwidth)
        self.ssd = ssd or Channel("ssd", self.hardware.ssd_bandwidth)
        self.disk_path = ChannelPair(self.ssd, self.pcie_h2d)

        if (
            fault_config is not None
            and fault_config.replica_schedule is not None
            and fault_config.replica_schedule.enabled
        ):
            raise ValueError(
                "replica fault schedules are cluster-level: run via a "
                "ClusterEngine (--instances >= 2), which owns "
                "crash/restart/drain scheduling"
            )
        # An inert fault config (all rates zero) builds no injector, so
        # default runs take the exact pre-fault code paths.
        self.fault_config: FaultConfig | None = None
        self.faults: FaultInjector | None = None
        if fault_config is not None and fault_config.enabled:
            self.fault_config = fault_config
            self.faults = FaultInjector(fault_config)
            for channel in (self.pcie_h2d, self.pcie_d2h, self.ssd):
                channel.fault_hook = self.faults

        self.store: AttentionStore | None = None
        if self.config.mode is ServingMode.CACHED:
            self.store = AttentionStore(
                store_config or StoreConfig(),
                model.kv_bytes_per_token,
                ssd_channel=self.ssd,
                fault_injector=self.faults,
            )

        self.queue = SchedulerQueue()
        self.batch = BatchState(self.config.batch_size)
        self.metrics = MetricsCollector(
            warmup_turns=warmup_turns, streaming=streaming_metrics
        )
        self.sessions: dict[int, SessionState] = {}

        self._gpu_busy = False
        # Sessions currently admitted (prefilling or decoding): their store
        # items are pinned against eviction (AttentionStore.pin) — the item
        # is about to be replaced at save time, so demoting it would only
        # waste SSD writes (and a popped job is otherwise invisible to the
        # queue view).
        self._active_sessions: set[int] = set()
        # Crash epoch: bumped by crash() so already-scheduled GPU-work
        # continuations (which cannot be unscheduled) no-op when they fire.
        self._epoch = 0
        # The job currently mid-prefill, if any; prefill continuations
        # otherwise live only in closures, invisible to crash().
        self._prefilling_job: ActiveJob | None = None
        #: History tokens recomputed because their turn failed over from a
        #: crashed replica (the failover recompute burden).
        self.failover_recompute_tokens = 0
        # Global turn numbers: a cluster passes one counter to every
        # replica, so warm-up windows follow cluster-wide turn order.
        self._turn_counter = turn_counter if turn_counter is not None else count()
        self._remaining_sessions = 0
        self._hbm_budget_tokens = self._compute_hbm_budget_tokens()
        self._hbm_reserved_tokens = 0
        # A cluster installs a hook here to route each session's next turn
        # (possibly to a different replica) instead of resubmitting locally.
        self.next_turn_hook: Callable[[ServingEngine, SessionState], None] | None = None
        # Optional span tracer (repro.obs): installed from outside via
        # SpanTracer.attach_engine; one attribute check per emission point
        # when unset.  Pure observation — never alters timing.
        self.tracer: "SpanTracer | None" = None
        # Streamed-trace state: the pending generator (None for
        # materialised traces) and whether finished sessions are dropped
        # from ``self.sessions`` to keep memory O(live sessions).
        self._stream: Iterator[Conversation] | None = None
        self._stream_arrival: StreamArrival | None = None
        self._drop_finished_sessions = False
        self._peak_live_sessions = 0
        # Hot-path bindings: the decode-chunk cost function (memoised in
        # PerfModel) and a per-engine save-cost memo keyed by the exact
        # per-turn KV delta (PCIe bandwidth is fixed for the run, so the
        # pair is pure; bounded so huge replays cannot grow it freely).
        self._decode_segment = self.perf.decode_segment_time_from_sum
        self._save_cost = lru_cache(maxsize=4096)(self._save_cost_uncached)
        self._init_continuations()
        self.sanitized = sanitize if sanitize is not None else sanitize_enabled()
        if self.sanitized:
            install_engine(self)

    def _init_continuations(self) -> None:
        """(Re)build the preallocated single-flight continuation set.

        Called at construction and by :meth:`crash`: a crash may leave a
        stale instance scheduled in the event queue, and reusing it for
        post-restart work would alias the stale event with fresh fields
        — the stale instance must instead keep its old epoch and no-op
        when it fires (see :mod:`repro.engine.continuations`).
        """
        self._prefill_slice_done = PrefillSliceDone(self)
        self._decode_chunk_done = DecodeChunkDone(self)
        self._save_block_done = SaveBlockDone(self)
        self._ttl_sweep_cont = TtlSweep(self)

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _compute_hbm_budget_tokens(self) -> int:
        """KV tokens that fit in HBM after weights and access buffers."""
        free = self.hardware.free_hbm_bytes(self.model)
        buffer_layers = self.config.read_buffer_layers + self.config.write_buffer_layers
        buffer_fraction = min(0.5, buffer_layers / self.model.n_layers * 0.1)
        hbm_cache = self.store.config.hbm_cache_bytes if self.store else 0
        usable = int(free * (1.0 - buffer_fraction)) - hbm_cache
        if usable <= 0:
            raise ValueError("no HBM left for active KV caches after buffers")
        return usable // self.model.kv_bytes_per_token

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, trace: Trace | Iterable[Conversation]) -> RunResult:
        """Replay ``trace`` to completion and return aggregate results."""
        self.schedule_trace(trace)
        self.sim.run()
        return self.result()

    def schedule_trace(self, trace: Trace | Iterable[Conversation]) -> None:
        """Schedule the session arrivals of ``trace`` (without running).

        Split out of :meth:`run` so a cluster can schedule work on several
        replicas sharing one simulator before draining it once.

        ``trace`` is either a materialised :class:`Trace` — every arrival
        is scheduled up front, exactly as before — or an arrival-ordered
        iterable of :class:`Conversation` objects (e.g.
        :func:`repro.workload.stream_trace`).  A streamed trace is pulled
        lazily: exactly one arrival event is pending at any time and
        finished sessions are dropped from :attr:`sessions`, so in-flight
        memory is O(live sessions) instead of O(total sessions).
        """
        if isinstance(trace, Trace):
            if len(trace) == 0:
                raise ValueError("cannot run an empty trace")
            self._remaining_sessions += len(trace)
            at = self.sim.at
            for conv in trace.conversations:
                at(conv.arrival_time, SessionStart(self, conv))
            self.schedule_maintenance()
            return
        stream = iter(trace)
        first = next(stream, None)
        if first is None:
            raise ValueError("cannot run an empty trace")
        self._stream = stream
        self._drop_finished_sessions = True
        self._remaining_sessions += 1
        self._stream_arrival = StreamArrival(self, first)
        self.sim.at(first.arrival_time, self._stream_arrival)
        self.schedule_maintenance()

    def schedule_maintenance(self) -> None:
        """Arm background work: TTL sweeps and injected tier-loss events.

        Called by :meth:`schedule_trace`; a cluster calls it directly for
        each replica, since cluster arrivals bypass ``schedule_trace``.
        """
        if self.store is not None and self.store.config.ttl_seconds is not None:
            self._schedule_ttl_sweep()
        if self.store is not None and self.fault_config is not None:
            for event in self.fault_config.tier_loss_events:
                self.sim.at(event.at, TierLoss(self.store, Tier(event.tier)))

    def result(self) -> RunResult:
        """Aggregate results after the simulator has drained."""
        summary = self.metrics.summarise()
        if self.sanitized and self._epoch == 0 and not self.metrics.streaming:
            check_gpu_busy(summary.total_gpu_busy_time, self.metrics.records)
        return RunResult(
            summary=summary,
            store_stats=self.store.stats if self.store else None,
            pcie_bytes=self.pcie_h2d.bytes_moved + self.pcie_d2h.bytes_moved,
            ssd_bytes=self.ssd.bytes_moved,
            events_processed=self.sim.events_processed,
            model_name=self.model.name,
            mode=self.config.mode,
        )

    @property
    def active_sessions(self) -> frozenset[int]:
        """Sessions currently admitted (prefilling or decoding); their
        store items are pinned against eviction."""
        return frozenset(self._active_sessions)

    @property
    def load_tokens(self) -> int:
        """Waiting + admitted token load (the least-loaded routing signal):
        queued question/answer tokens plus HBM-reserved tokens of jobs
        currently prefilling or decoding."""
        return self.queue.pending_tokens + self._hbm_reserved_tokens

    def start_session(self, conv: Conversation) -> None:
        """Begin serving ``conv`` now (cluster arrival entry point)."""
        self._remaining_sessions += 1
        self._start_session(conv)

    def submit_next_turn(
        self,
        session: SessionState,
        *,
        failover: bool = False,
        arrival_time: float | None = None,
    ) -> None:
        """Enqueue a session's next turn now (cluster routing entry point).

        Resubmissions of a turn interrupted by a replica crash pass
        ``failover=True`` (the history is recomputed at this replica) and
        the turn's *original* ``arrival_time``, so recorded queueing delay
        spans the downtime the user actually waited through.
        """
        self._submit_next_turn(session, failover=failover, arrival_time=arrival_time)

    def release_session(self, session_id: int) -> SessionState:
        """Hand a session off to another replica (cluster migration)."""
        session = self.sessions.pop(session_id)
        self._remaining_sessions -= 1
        return session

    def adopt_session(self, session: SessionState) -> None:
        """Take over a session handed off by another replica."""
        self.sessions[session.session_id] = session
        self._remaining_sessions += 1

    # ------------------------------------------------------------------
    # Arrival path
    # ------------------------------------------------------------------
    def _start_session(self, conv: Conversation) -> None:
        session = SessionState(conversation=conv)
        sessions = self.sessions
        sessions[conv.session_id] = session
        if self._drop_finished_sessions and len(sessions) > self._peak_live_sessions:
            self._peak_live_sessions = len(sessions)
        self._submit_next_turn(session)

    def _on_stream_arrival(self, arrival: StreamArrival) -> None:
        """One streamed arrival fired: chain the next, then start this one.

        The next conversation is pulled and scheduled *before* this
        session starts so the arrival chain never depends on serving
        progress; the generator contract (non-decreasing arrival times)
        makes scheduling at ``conv.arrival_time`` always legal.
        """
        conv = arrival.conv
        assert self._stream is not None
        nxt = next(self._stream, None)
        if nxt is None:
            self._stream = None
            self._stream_arrival = None
        else:
            if nxt.arrival_time < conv.arrival_time:
                raise ValueError(
                    "streamed trace is not arrival-ordered: "
                    f"{nxt.arrival_time} after {conv.arrival_time}"
                )
            self._remaining_sessions += 1
            arrival.conv = nxt
            self.sim.at(nxt.arrival_time, arrival)
        self._start_session(conv)

    def _submit_next_turn(
        self,
        session: SessionState,
        failover: bool = False,
        arrival_time: float | None = None,
    ) -> None:
        turn = session.conversation.turns[session.next_turn]
        request = TurnRequest(
            session_id=session.session_id,
            turn_index=session.next_turn,
            q_tokens=turn.q_tokens,
            a_tokens=turn.a_tokens,
            arrival_time=self._clock.now if arrival_time is None else arrival_time,
            global_turn=next(self._turn_counter),
            failover=failover,
        )
        self.queue.push(request)
        self._prefetch()
        self._dispatch()

    def _prefetch(self) -> None:
        store = self.store
        if store is None:
            return
        for session_id, done in store.prefetch(self.queue, self._clock.now):
            self.sim.at(done, FetchDone(store, session_id))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._gpu_busy:
            return
        if self.queue and not self.batch.is_full:
            request = self.queue.peek()
            assert request is not None
            if self._fits_hbm(request):
                self.queue.pop()
                self._active_sessions.add(request.session_id)
                if self.store is not None:
                    self.store.pin(request.session_id)
                self._prefetch()
                self._start_turn(request)
                return
        if self.batch:
            self._start_decode_chunk()

    def _fits_hbm(self, request: TurnRequest) -> bool:
        session = self.sessions[request.session_id]
        window = self.model.context_window
        prompt_upper = min(session.history_tokens + request.q_tokens, window)
        needed = prompt_upper + min(request.a_tokens, window)
        return self._hbm_reserved_tokens + needed <= self._hbm_budget_tokens

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------
    def _start_turn(self, request: TurnRequest) -> None:
        """Plan an admitted turn, run the plan's effects, start its prefill."""
        session = self.sessions[request.session_id]
        now = self._clock.now
        kept = apply_context_window(
            session.history_tokens,
            request.q_tokens,
            self.model.context_window,
            self.config.truncation_ratio,
        )
        plan, load_time = self._apply_turn(request, session, kept, now)
        prompt = kept.prompt_tokens
        new_tokens = plan.new
        if request.failover:
            self.failover_recompute_tokens += new_tokens
        compute_time = (
            self.perf.prefill_time(new_tokens, plan.reused)
            / self.config.prefill_efficiency_factor
        )
        if load_time > 0.0:
            if self.config.enable_preload:
                duration = layerwise_prefill_time(
                    self.model.n_layers,
                    compute_time,
                    load_time,
                    self.config.read_buffer_layers,
                )
            else:
                duration = no_preload_prefill_time(compute_time, load_time)
        else:
            # Nothing to load (cold turn or HBM-cache hit): pure compute.
            duration = compute_time
        if self.sanitized:
            check_overlap_envelope(duration, compute_time, load_time)

        generate = clamp_decode_tokens(
            prompt, request.a_tokens, self.model.context_window
        )
        record = TurnRecord(
            session_id=request.session_id,
            turn_index=request.turn_index,
            global_turn=request.global_turn,
            outcome=plan.outcome,
            arrival_time=request.arrival_time,
            prefill_start=now,
            prompt_tokens=prompt,
            new_tokens=new_tokens,
            reused_tokens=plan.reused,
            generated_tokens=generate,
            ttft=duration,
            prefill_gpu_time=duration,
            dropped_tokens=kept.dropped_tokens,
            shared_hit_tokens=plan.shared,
        )
        job = ActiveJob(
            request=request,
            record=record,
            context_tokens=prompt,
            remaining_tokens=generate,
            reserved_tokens=prompt + generate,
        )
        self._hbm_reserved_tokens += job.reserved_tokens
        self._prefilling_job = job
        if self.tracer is not None:
            self._trace_prefill(request, record, now, compute_time, load_time)
        self._gpu_occupy(duration)
        if len(self.batch) > 0:
            # Decoding jobs are stalled for the prefill (Section 4.2's
            # blocking effect).
            self.metrics.record_decode_stall(duration)
        # Single-flight: the GPU serialises prefills, so the one
        # preallocated continuation is free whenever a prefill starts.
        cont = self._prefill_slice_done
        cont.epoch = self._epoch
        cont.job = job
        self.sim.after(duration, cont)

    def _trace_prefill(
        self,
        request: TurnRequest,
        record: TurnRecord,
        now: float,
        compute_time: float,
        load_time: float,
    ) -> None:
        """Emit queue-wait / preload / shared-hit / prefill spans for one
        starting turn, copied from what :meth:`_start_turn` computed."""
        assert self.tracer is not None
        span = partial(self.tracer.span, track=self.name)
        duration = record.prefill_gpu_time
        ids: dict[str, object] = {
            "session": request.session_id,
            "turn": request.turn_index,
        }
        span("queue-wait", "queue", request.arrival_time, now, lane="queue", args=ids)
        if load_time > 0.0:
            hidden, exposed = overlap_exposure(compute_time, load_time, duration)
            preload: dict[str, object] = {
                "session": request.session_id,
                "reused_tokens": record.reused_tokens,
                "hidden_s": hidden,
                "exposed_s": exposed,
            }
            span("preload", "kv", now, now + load_time, lane="kv-load", args=preload)
        if record.shared_hit_tokens > 0:
            shared = {**ids, "shared_tokens": record.shared_hit_tokens}
            span("shared-hit", "kv", now, now + load_time, lane="kv-load", args=shared)
        prefill = {
            **ids,
            "prompt_tokens": record.prompt_tokens,
            "new_tokens": record.new_tokens,
            "reused_tokens": record.reused_tokens,
            "outcome": record.outcome.value,
        }
        span("prefill", "gpu", now, now + duration, lane="gpu", args=prefill)

    def _shared_hash_of(self, session: SessionState) -> str | None:
        """The session's shared-prefix content hash, or None when sharing
        does not apply (no prefix, sharing disabled, diverged, no store,
        or HBM-cache mode — whose saves retain the *full* history
        privately, so deduplicating the prefix would double-count it)."""
        conv = session.conversation
        if (
            conv.shared_prefix_tokens <= 0
            or session.shared_detached
            or self.store is None
            or not self.store.config.enable_sharing
            or self.store.config.hbm_cache_bytes > 0
        ):
            return None
        if session.shared_hash is None:
            session.shared_hash = shared_prefix_hash(
                conv.shared_prefix_id,
                conv.shared_prefix_tokens,
                self.model.name,
            )
        return session.shared_hash

    def _apply_turn(
        self,
        request: TurnRequest,
        session: SessionState,
        kept: TruncationOutcome,
        now: float,
    ) -> tuple[TurnPlan, float]:
        """Run one turn's effects around its pure :func:`plan_turn`: the
        truncation (a COW fork for a prefix session), the private then
        shared lookup, the orphan-suffix drop, the loads (private first),
        the shared reference, the stats counters.  Returns the plan as
        run (its fallback if a load failed) and the KV load time."""
        store = self.store
        session_id = request.session_id
        history_before = session.history_tokens
        if history_before > kept.history_tokens:
            session.record_truncation(history_before - kept.history_tokens)
            if store is not None:
                # Valid only if positions were decoupled at save (§3.4).
                store.truncate(session_id, kept.history_tokens)
        if kept.dropped_tokens and session.conversation.shared_prefix_tokens:
            # Histories only append: the session has left its prefix.
            session.shared_detached = True
        shared_hash = self._shared_hash_of(session)
        first_turn = request.turn_index == 0
        private: LookupResult | None = None
        shared: SharedLookup | None = None
        if store is not None:
            if not (first_turn or request.failover) and kept.history_tokens:
                private = store.lookup(session_id, now)
            # The prefix is read on turn 0 or behind a private lookup that
            # found no corrupt item.
            clean = (
                private is not None and private.status is not LookupStatus.MISS_CORRUPT
            )
            if shared_hash is not None and (first_turn or clean):
                shared = store.lookup_shared(shared_hash, now)
        plan = plan_turn(
            kept.history_tokens,
            kept.prompt_tokens,
            private,
            shared,
            prefixed=shared_hash is not None,
            first_turn=first_turn,
            failover=request.failover,
        )
        if self.sanitized:
            window = self.model.context_window
            ratio = self.config.truncation_ratio
            check_turn_plan(plan, history_before, kept, first_turn, window, ratio)
        if plan.drop_private:
            assert store is not None
            store.drop(session_id)
        # Every part loads, even after another failed or with no tokens:
        # each transfer draws from the fault hook and can wait on its link.
        load_time = 0.0
        failed = False
        for lookup, n_tokens in plan.loads:
            if lookup.status is LookupStatus.HIT_HBM:
                continue
            n_bytes = self.model.kv_bytes(n_tokens)
            if lookup.status is LookupStatus.HIT_DRAM:
                start = max(now, lookup.ready_at)
                done = self._fault_tolerant_transfer(self.pcie_h2d, start, n_bytes)
            elif store is None or store.ssd_available(now):
                done = self._fault_tolerant_transfer(self.disk_path, now, n_bytes)
            else:
                done = None  # the SSD breaker is open
            if done is None:
                failed = True
            else:
                # The parts load in parallel; the channels serialise them.
                load_time = max(load_time, done - now)
        if failed:
            plan = plan.fallback()
            load_time = 0.0
        elif plan.shared:
            assert store is not None and shared_hash is not None
            store.acquire_shared(shared_hash, session_id)
        if plan.outcome is TurnOutcome.FALLBACK_RECOMPUTE and store is not None:
            store.stats.fallback_recomputes += 1
        return plan, load_time

    def _fault_tolerant_transfer(
        self, link: Channel | ChannelPair, start: float, n_bytes: int
    ) -> float | None:
        """Run one engine-side transfer, absorbing injected faults.

        Without an injector this is a plain ``link.transfer``.  With one,
        transient failures are retried with capped exponential backoff up
        to the configured budget; SSD failures additionally feed the
        store's SSD health breaker.  Returns the completion time, or None
        when the transfer could not be completed.
        """
        if self.faults is None:
            return link.transfer(start, n_bytes)
        fc = self.faults.config
        stats = self.store.stats if self.store is not None else None
        health = self.store.ssd_health if self.store is not None else None
        attempt = 0
        t = start
        while True:
            try:
                done = link.transfer(t, n_bytes)
            except FaultyTransfer as fault:
                if stats is not None:
                    stats.transfer_faults += 1
                if fault.channel == "ssd" and health is not None:
                    if health.record_failure(t):
                        if stats is not None:
                            stats.breaker_trips += 1
                        return None
                if attempt >= fc.max_retries:
                    return None
                attempt += 1
                if stats is not None:
                    stats.transfer_retries += 1
                t = max(t, fault.busy_until) + fc.backoff(attempt)
                continue
            if (
                isinstance(link, ChannelPair)
                and health is not None
                and health.record_success()
                and stats is not None
            ):
                stats.breaker_recoveries += 1
            return done

    def _on_prefill_done(self, job: ActiveJob) -> None:
        self._gpu_release()
        self._prefilling_job = None
        job.decode_wall_start = self._clock.now
        self.batch.add(job)
        self._dispatch()

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def _start_decode_chunk(self) -> None:
        """Run up to ``decode_chunk_iters`` iterations, then re-enter
        dispatch."""
        batch = self.batch
        batch_len = len(batch)
        n_iters = min(self.config.decode_chunk_iters, batch.min_remaining())
        duration = self._decode_segment(batch.context_sum, batch_len, n_iters)
        if self.tracer is not None:
            now = self._clock.now
            self.tracer.span(
                "decode",
                "gpu",
                now,
                now + duration,
                lane="gpu",
                track=self.name,
                args={"batch": batch_len, "iters": n_iters},
            )
        self._gpu_occupy(duration)
        # Single-flight: at most one decode chunk is in flight, so the
        # preallocated continuation is free here (a crash swaps in a
        # fresh set, leaving any stale pending instance to no-op).
        cont = self._decode_chunk_done
        cont.epoch = self._epoch
        cont.n_iters = n_iters
        cont.duration = duration
        cont.batch_len = batch_len
        self.sim.after(duration, cont)

    def _on_decode_chunk_done(
        self, n_iters: int, duration: float, batch_len: int
    ) -> None:
        self._gpu_release()
        share = duration / batch_len
        # Fused advance + accounting: every job that decoded this chunk
        # (survivors and finishers alike) is credited ``share`` in the
        # same pass that moves its token counters.
        finished = self.batch.advance_and_share(n_iters, share)
        blocking_total = 0.0
        if finished:
            blocking_total = self._complete_turns(finished)
        if blocking_total > 0.0:
            if self.tracer is not None:
                now = self._clock.now
                self.tracer.span(
                    "save-block",
                    "gpu",
                    now,
                    now + blocking_total,
                    lane="gpu",
                    track=self.name,
                    args={"turns": len(finished)},
                )
            # Residual KV write-back blocks the GPU before the next job.
            self._gpu_occupy(blocking_total)
            cont = self._save_block_done
            cont.epoch = self._epoch
            self.sim.after(blocking_total, cont)
        else:
            self._dispatch()

    def _on_save_block_done(self) -> None:
        self._gpu_release()
        self._dispatch()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete_turns(self, finished: list[ActiveJob]) -> float:
        """Finish a decode chunk's completed turns; return the total GPU
        blocking from KV saving.

        The per-turn loop runs with every invariant attribute hoisted
        (clock, session map, store, tracer); :meth:`MetricsCollector.record_turns`
        then records the chunk's turns in order.
        """
        now = self._clock.now
        sessions = self.sessions
        store = self.store
        tracer = self.tracer
        active = self._active_sessions
        after = self.sim.after
        drop_finished = self._drop_finished_sessions
        reserved_delta = 0
        blocking_total = 0.0
        for job in finished:
            session_id = job.session_id
            session = sessions[session_id]
            record = job.record
            record.completion_time = now
            reserved_delta += job.reserved_tokens

            blocking = 0.0
            if store is not None:
                blocking = self._save_kv(job, session)
                store.unpin(session_id)
            active.discard(session_id)
            record.save_block_time = blocking
            blocking_total += blocking
            if tracer is not None:
                tracer.async_span(
                    "turn",
                    "turn",
                    f"{session_id}:{record.turn_index}",
                    record.arrival_time,
                    now,
                    track=self.name,
                    args={
                        "session": session_id,
                        "turn": record.turn_index,
                        "outcome": record.outcome.value,
                        "ttft_s": record.ttft,
                    },
                )

            session.record_turn_served(record.prompt_tokens, record.generated_tokens)
            if session.finished:
                self._remaining_sessions -= 1
                # The timer points back at the session; break the cycle
                # so a dropped session dies by refcount (the loop runs
                # with the cyclic GC paused).
                session.timer = None
                if drop_finished:
                    # Streamed replay: the session will never be looked
                    # up again (its KV lives in the store until evicted
                    # or expired), so holding it would make memory
                    # O(total sessions).
                    del sessions[session_id]
            else:
                think = session.conversation.turns[session.next_turn].think_time
                timer = session.timer
                if timer is None:
                    timer = NextTurnTimer(self, session)
                    session.timer = timer
                else:
                    # The session may have migrated here: the timer must
                    # complete against the replica that served this turn.
                    timer.engine = self
                after(think, timer)
        self._hbm_reserved_tokens -= reserved_delta
        self.metrics.record_turns([job.record for job in finished])
        return blocking_total

    def _save_kv(self, job: ActiveJob, session: SessionState) -> float:
        """Write the turn's newly produced KV to AttentionStore."""
        assert self.store is not None
        now = self._clock.now
        record = job.record
        total_tokens = record.prompt_tokens + record.generated_tokens
        decoupled = self.config.truncation is TruncationPolicyName.KV_DECOUPLED

        # Shared-prefix dedup: a prefix-bearing session saves only the
        # tokens *after* the prefix privately; the prefix itself lives
        # once in the content-addressed index.  Registration is
        # idempotent across the template's sessions; if no space can be
        # made for the block, this session detaches and stores its full
        # history privately like any other.
        prefix_tokens = 0
        shared_hash = self._shared_hash_of(session)
        if shared_hash is not None:
            conv = session.conversation
            if self.store.register_shared(
                shared_hash,
                conv.shared_prefix_tokens,
                now,
                queue=self.queue,
            ):
                self.store.acquire_shared(shared_hash, job.session_id)
                prefix_tokens = conv.shared_prefix_tokens
            else:
                session.shared_detached = True

        if self.store.config.hbm_cache_bytes > 0:
            item = self.store.save_to_hbm_cache(
                job.session_id, total_tokens, now, queue=self.queue
            )
        else:
            item = self.store.save(
                job.session_id,
                total_tokens - prefix_tokens,
                now,
                queue=self.queue,
                position_decoupled=decoupled,
            )
        if item is None:
            return 0.0
        if not decoupled:
            item.position_decoupled = False

        # Only the KV produced this turn crosses PCIe; reused history
        # already lives in the store.
        delta_tokens = record.new_tokens + record.generated_tokens
        n_bytes, save_time = self._save_cost(delta_tokens)
        moved = self.pcie_d2h.bytes_moved
        done = self._fault_tolerant_transfer(self.pcie_d2h, now, n_bytes)
        if done is None:
            # The write-back failed: the stored copy is incomplete, so the
            # turn degrades to "not retained" — drop it and move on
            # without blocking the GPU.
            self.store.drop(job.session_id)
            self.store.stats.failed_saves += 1
            return 0.0
        if self.sanitized:
            moved = self.pcie_d2h.bytes_moved - moved
            stored = item.n_tokens + prefix_tokens
            check_saved_bytes(record, moved, stored, self.model.kv_bytes)
        if not self.config.enable_async_save:
            return sync_save_blocking_time(save_time)
        blocking = async_save_blocking_time(
            save_time,
            max(0.0, now - job.decode_wall_start),
            self.model.n_layers,
            self.config.write_buffer_layers,
        )
        if self.sanitized:
            check_save_blocking_envelope(blocking, save_time)
        return blocking

    def _save_cost_uncached(self, delta_tokens: int) -> tuple[int, float]:
        """(bytes, unloaded PCIe seconds) for one turn's KV write-back.

        Both depend only on ``delta_tokens`` — KV bytes/token and the
        d2h link's nominal bandwidth are fixed for the run — so the
        engine memoises the pair (``self._save_cost``).  Note this is
        the *duration at full bandwidth* used by the overlap model; the
        actual (contended) transfer still goes through the channel.
        """
        n_bytes = self.model.kv_bytes(delta_tokens)
        return n_bytes, self.pcie_d2h.duration(n_bytes)

    # ------------------------------------------------------------------
    # Replica lifecycle (cluster crash/restart entry points)
    # ------------------------------------------------------------------
    def crash(self, now: float) -> list[TurnRequest]:
        """Kill the replica: wipe volatile state and abort in-flight work.

        Returns the interrupted turn requests (queued, mid-prefill and
        mid-decode) in arrival order, so the cluster can fail them over to
        healthy peers or park them for resubmission at restart.  Already-
        scheduled continuations of the aborted GPU work are invalidated by
        bumping the crash epoch (closures cannot be unscheduled); pending
        think-time callbacks survive — clients keep typing while the
        server is down.  GPU-busy time the aborted work already recorded
        stays recorded: the GPU really burned it.
        """
        self._epoch += 1
        # Abandon the preallocated continuation set: any instance still
        # sitting in the event queue keeps its pre-crash epoch and no-ops
        # when it fires; reusing it for post-restart work would overwrite
        # those fields and turn the no-op into an early fire.
        self._init_continuations()
        interrupted: list[TurnRequest] = []
        while self.queue:
            interrupted.append(self.queue.pop())
        if self._prefilling_job is not None:
            interrupted.append(self._prefilling_job.request)
            self._prefilling_job = None
        interrupted.extend(job.request for job in self.batch.jobs)
        self.batch = BatchState(self.config.batch_size)
        self._gpu_busy = False
        self._hbm_reserved_tokens = 0
        if self.store is not None:
            for session_id in self._active_sessions:
                self.store.unpin(session_id)
            self.store.wipe_volatile(now)
        self._active_sessions.clear()
        interrupted.sort(key=lambda r: (r.arrival_time, r.global_turn))
        return interrupted

    def restart(
        self, now: float, keep: Callable[[int], bool] | None = None
    ) -> tuple[int, int]:
        """Bring a crashed replica back up, re-admitting surviving SSD KV.

        ``keep`` filters which parked sessions' caches return (the cluster
        rejects sessions that failed over during the downtime — their
        authoritative copy lives at the new home now).  Re-arms the TTL
        sweep under the post-crash epoch; tier-loss events were scheduled
        at absolute times and need no re-arming.  Returns the
        ``(readmitted, discarded)`` item counts.
        """
        readmitted = discarded = 0
        if self.store is not None:
            readmitted, discarded = self.store.restore_offline(now, keep)
            if self.store.config.ttl_seconds is not None:
                self._schedule_ttl_sweep()
        return readmitted, discarded

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------
    def _schedule_ttl_sweep(self) -> None:
        """Arm the next TTL sweep under the current crash epoch.

        The sweep chain is single-flight (each firing arms the next), so
        the one preallocated :class:`TtlSweep` is always free here; a
        sweep armed before a crash keeps the stale epoch — and the stale
        instance — and no-ops, while :meth:`restart` re-arms the fresh
        instance under the new epoch.
        """
        cont = self._ttl_sweep_cont
        cont.epoch = self._epoch
        self.sim.after(self.TTL_SWEEP_INTERVAL, cont)

    def _ttl_sweep(self) -> None:
        assert self.store is not None
        self.store.sweep_expired(self._clock.now)
        if self._remaining_sessions > 0:
            self._schedule_ttl_sweep()

    # ------------------------------------------------------------------
    # GPU occupancy bookkeeping
    # ------------------------------------------------------------------
    def _gpu_occupy(self, duration: float) -> None:
        if self._gpu_busy:
            raise RuntimeError("GPU already busy")
        self._gpu_busy = True
        self.metrics.record_gpu_busy(duration)

    def _gpu_release(self) -> None:
        if not self._gpu_busy:
            raise RuntimeError("GPU was not busy")
        self._gpu_busy = False
