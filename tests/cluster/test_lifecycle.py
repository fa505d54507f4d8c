"""Replica lifecycle: crash/restart/drain with session failover.

The failure model (DESIGN.md §11): a crash wipes the replica's volatile
KV (HBM + DRAM) and kills its in-flight turns, but the SSD tier survives
and is re-admitted at restart; a graceful drain migrates live sessions
out before stopping.  With failover on, interrupted and newly-arriving
turns are re-routed to healthy replicas (recomputing history when the KV
died with the replica); with it off, they park until the replica
returns — the naive-restart baseline.
"""

import dataclasses
from collections import Counter

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    ReplicaLifecycle,
    ReplicaState,
    RouterName,
)
from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine
from repro.engine.continuations import (
    DecodeChunkDone,
    PrefillSliceDone,
    SaveBlockDone,
    TtlSweep,
)
from repro.faults import (
    FaultConfig,
    ReplicaCrash,
    ReplicaDrain,
    ReplicaFaultSchedule,
)
from repro.models import get_model
from repro.sim import Simulator
from repro.workload import WorkloadSpec, generate_trace

MODEL = get_model("llama-13b")


def chaos_trace(n_sessions=80, rate=4.0, seed=7):
    return generate_trace(
        WorkloadSpec(n_sessions=n_sessions, arrival_rate=rate, seed=seed)
    )


def tight_store():
    """Small-DRAM store so KV actually reaches the SSD tier pre-crash."""
    return StoreConfig(
        dram_bytes=40_000 * MODEL.kv_bytes_per_token,
        ssd_bytes=2_000_000 * MODEL.kv_bytes_per_token,
    )


def run_chaos(
    schedule,
    *,
    failover=True,
    n_instances=3,
    router=RouterName.AFFINITY,
    trace=None,
    store_config=None,
    engine_config=None,
    sanitize=None,
):
    engine = ClusterEngine(
        MODEL,
        cluster=ClusterConfig(
            n_instances=n_instances, router=router, failover=failover
        ),
        engine_config=engine_config or EngineConfig(batch_size=8),
        store_config=store_config or StoreConfig(),
        fault_config=FaultConfig(seed=3, replica_schedule=schedule),
        sanitize=sanitize,
    )
    result = engine.run(trace if trace is not None else chaos_trace())
    return engine, result


def one_crash(at=60.0, replica=1, downtime=45.0):
    return ReplicaFaultSchedule(
        crashes=(ReplicaCrash(at=at, replica=replica, downtime=downtime),)
    )


class TestCrashRestart:
    def test_failover_serves_every_turn(self):
        trace = chaos_trace()
        engine, result = run_chaos(one_crash(), trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.crashes == 1
        assert result.restarts == 1
        assert result.failovers > 0
        assert result.failover_recompute_tokens > 0
        assert result.total_downtime_s == 45.0
        assert result.mttr_s == 45.0
        life = engine.lifecycles[1]
        assert life.state is ReplicaState.UP
        assert (life.crashes, life.restarts) == (1, 1)

    def test_ssd_copies_survive_and_failed_over_copies_discard(self):
        engine, _ = run_chaos(
            one_crash(), n_instances=2, store_config=tight_store()
        )
        stats = engine.engines[1].store.stats
        # Both restart paths fire: sessions that stayed homed here get
        # their surviving SSD copy back; sessions that failed over during
        # the downtime have an authoritative copy elsewhere, so the
        # parked one is discarded (exactly-one-copy across the restart).
        assert stats.restart_readmissions > 0
        assert stats.restart_discards > 0

    def test_naive_restart_parks_turns(self):
        trace = chaos_trace()
        engine, result = run_chaos(
            one_crash(),
            trace=trace,
            n_instances=2,
            store_config=tight_store(),
            failover=False,
        )
        assert result.summary.n_turns == trace.n_turns_total
        assert result.parked_turns > 0
        assert result.failovers == 0
        assert result.failover_recompute_tokens == 0
        # Parked sessions resume against their re-admitted SSD copy.
        assert engine.engines[1].store.stats.restart_readmissions > 0

    def test_all_replicas_down_holds_and_retries(self):
        trace = chaos_trace(n_sessions=40)
        schedule = ReplicaFaultSchedule(
            crashes=(
                ReplicaCrash(at=30.0, replica=0, downtime=20.0),
                ReplicaCrash(at=30.0, replica=1, downtime=20.0),
            )
        )
        _, result = run_chaos(schedule, n_instances=2, trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.failover_retries > 0

    def test_sanitized_chaos_run_is_clean(self):
        schedule = ReplicaFaultSchedule(
            crashes=(ReplicaCrash(at=30.0, replica=1, downtime=40.0),),
            drains=(ReplicaDrain(at=120.0, replica=0),),
        )
        trace = chaos_trace()
        _, result = run_chaos(schedule, trace=trace, sanitize=True)
        assert result.summary.n_turns == trace.n_turns_total


#: Continuations that carry the crash epoch they were scheduled under and
#: must no-op when they fire after a crash.
EPOCH_GUARDED = (PrefillSliceDone, DecodeChunkDone, SaveBlockDone, TtlSweep)

#: The engine handlers those continuations run; a down replica runs none.
GUARDED_HANDLERS = (
    "_on_prefill_done",
    "_on_decode_chunk_done",
    "_on_save_block_done",
    "_ttl_sweep",
)


def in_flight_window(cls, replica=1, after=30.0, **run_kwargs):
    """``(scheduled, due)`` of the first ``cls`` continuation that
    ``replica`` schedules after ``after`` seconds in an uncrashed run.

    A crash anywhere inside the window finds that continuation in the
    heap: runs are deterministic, and the crash event fires at a time no
    other event shares, so the replay up to the crash is the same.
    """
    windows = []
    schedule = Simulator.after

    def spy(sim, delay, callback):
        if (
            isinstance(callback, cls)
            and callback.engine.name == f"replica-{replica}"
            and sim.now > after
        ):
            windows.append((sim.now, sim.now + delay))
        schedule(sim, delay, callback)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "after", spy)
        run_chaos(None, **run_kwargs)
    return windows[0]


@pytest.fixture
def crash_probe(monkeypatch):
    """Record stale fires per guarded class and every guarded handler run.

    ``stale[name]`` counts fires of that continuation class after the
    engine's epoch moved on; ``handled`` lists ``(replica, time)`` for
    every handler a guarded continuation reached.
    """
    stale = Counter()
    handled = []
    for cls in EPOCH_GUARDED:

        def fire(self, call=cls.__call__, name=cls.__name__):
            if self.engine._epoch != self.epoch:
                stale[name] += 1
            call(self)

        monkeypatch.setattr(cls, "__call__", fire)
    for name in GUARDED_HANDLERS:

        def handler(self, *args, run=getattr(ServingEngine, name)):
            handled.append((self.name, self.sim.now))
            run(self, *args)

        monkeypatch.setattr(ServingEngine, name, handler)
    return stale, handled


class TestCrashInFlight:
    """A crash while a guarded continuation is in the heap: the stale
    event must fire and do nothing.  Without its epoch guard it would run
    the handler on a dead replica (and release a GPU nobody holds)."""

    #: Per class, the run that schedules it on replica 1: save blocks need
    #: the synchronous write-back, sweeps need a TTL.
    RUNS = {
        PrefillSliceDone: {},
        DecodeChunkDone: {},
        SaveBlockDone: {
            "engine_config": EngineConfig(batch_size=8, enable_async_save=False)
        },
        TtlSweep: {"store_config": StoreConfig(ttl_seconds=300.0)},
    }

    @pytest.mark.parametrize("cls", EPOCH_GUARDED, ids=lambda c: c.__name__)
    def test_stale_continuation_is_a_no_op(self, cls, crash_probe):
        run_kwargs = self.RUNS[cls]
        scheduled, due = in_flight_window(cls, **run_kwargs)
        at = (scheduled + due) / 2
        # Down for longer than the window (120 s for a TTL sweep), so
        # the stale event fires while the replica is down.
        crash = ReplicaCrash(at=at, replica=1, downtime=150.0)
        stale, handled = crash_probe
        stale.clear()  # forget the uncrashed probe run
        handled.clear()
        trace = chaos_trace()
        engine, result = run_chaos(
            ReplicaFaultSchedule(crashes=(crash,)), trace=trace, **run_kwargs
        )
        assert stale[cls.__name__] >= 1
        assert result.summary.n_turns == trace.n_turns_total
        assert engine.lifecycles[1].restarts == 1
        dead = [
            t for name, t in handled
            if name == "replica-1" and crash.at <= t < crash.restart_at
        ]
        assert dead == []


class TestDrain:
    def test_drain_migrates_out_and_stops(self):
        trace = chaos_trace()
        schedule = ReplicaFaultSchedule(drains=(ReplicaDrain(at=60.0, replica=0),))
        engine, result = run_chaos(schedule, trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.drains == 1
        life = engine.lifecycles[0]
        assert life.state is ReplicaState.STOPPED
        # "Migrate, then stop": nothing is left behind, and live sessions
        # took their KV with them over the cluster link.
        assert len(engine.engines[0].store) == 0
        assert result.migrations > 0

    def test_drain_preserves_kv_under_scatter_routers(self):
        trace = chaos_trace()
        schedule = ReplicaFaultSchedule(drains=(ReplicaDrain(at=60.0, replica=0),))
        engine, result = run_chaos(
            schedule, trace=trace, router=RouterName.ROUND_ROBIN
        )
        assert result.summary.n_turns == trace.n_turns_total
        assert engine.lifecycles[0].state is ReplicaState.STOPPED
        # Forced drain migrations move KV even though round-robin would
        # normally scatter-drop it.
        assert result.migrations > 0

    def test_crash_cancels_drain(self):
        # Drain during the arrival burst (in-flight turns keep the drain
        # polling), then crash the draining replica before it empties.
        trace = chaos_trace()
        schedule = ReplicaFaultSchedule(
            crashes=(ReplicaCrash(at=2.0, replica=0, downtime=30.0),),
            drains=(ReplicaDrain(at=1.0, replica=0),),
        )
        engine, result = run_chaos(schedule, trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.crashes == 1
        life = engine.lifecycles[0]
        # The crash cancelled the drain: the replica came back UP after
        # its downtime instead of reaching STOPPED.
        assert life.state is ReplicaState.UP


class TestDeterminism:
    def _snapshot(self, result):
        return (
            dataclasses.asdict(result.summary),
            [dataclasses.asdict(r.summary) for r in result.replicas],
            result.crashes,
            result.restarts,
            result.drains,
            result.lost_turns,
            result.failovers,
            result.failover_retries,
            result.parked_turns,
            result.failover_recompute_tokens,
            result.events_processed,
        )

    def test_chaos_runs_are_bit_identical(self):
        schedule = ReplicaFaultSchedule(
            crashes=(ReplicaCrash(at=30.0, replica=1, downtime=40.0),),
            drains=(ReplicaDrain(at=120.0, replica=2),),
        )
        a = run_chaos(schedule, trace=chaos_trace())[1]
        b = run_chaos(schedule, trace=chaos_trace())[1]
        assert self._snapshot(a) == self._snapshot(b)

    def test_no_schedule_matches_empty_schedule(self):
        """An inert schedule must not perturb a healthy run."""
        trace = chaos_trace()
        plain = run_chaos(None, trace=trace)[1]
        empty = run_chaos(ReplicaFaultSchedule(), trace=chaos_trace())[1]
        assert self._snapshot(plain) == self._snapshot(empty)


class TestLifecycleTransitions:
    def test_initial_state(self):
        life = ReplicaLifecycle()
        assert life.state is ReplicaState.UP
        assert life.routable

    def test_crash_restart_accounting(self):
        life = ReplicaLifecycle()
        life.crash(10.0)
        assert life.state is ReplicaState.DOWN
        assert not life.routable
        life.restart(25.0)
        assert life.state is ReplicaState.UP
        assert life.total_downtime == 15.0

    def test_drain_is_not_routable(self):
        life = ReplicaLifecycle()
        life.begin_drain(5.0)
        assert life.state is ReplicaState.DRAINING
        assert not life.routable
        life.finish_drain()
        assert life.state is ReplicaState.STOPPED

    def test_illegal_transitions(self):
        life = ReplicaLifecycle()
        with pytest.raises(ValueError):
            life.restart(1.0)  # not down
        life.crash(1.0)
        with pytest.raises(ValueError):
            life.crash(2.0)  # already down
        with pytest.raises(ValueError):
            life.begin_drain(2.0)  # down replicas cannot drain
        life.restart(3.0)
        life.begin_drain(4.0)
        with pytest.raises(ValueError):
            life.begin_drain(5.0)  # already draining

    def test_crash_cancels_drain_transition(self):
        life = ReplicaLifecycle()
        life.begin_drain(1.0)
        life.crash(2.0)
        assert life.state is ReplicaState.DOWN
        assert life.drain_started_at is None
