"""Streaming trace generation and the engine's streamed-arrival path."""

import dataclasses
import gc

import pytest

from repro.cluster import ClusterConfig, ClusterEngine
from repro.config import EngineConfig
from repro.engine import ServingEngine
from repro.engine.session import SessionState
from repro.models import get_model
from repro.workload import (
    Conversation,
    Trace,
    Turn,
    WorkloadSpec,
    generate_trace,
    stream_trace,
)


def build_engine() -> ServingEngine:
    return ServingEngine(
        get_model("llama-13b"), engine_config=EngineConfig(batch_size=8)
    )


class TestStreamGeneration:
    def test_prefix_stable_across_n_sessions(self):
        """A short stream is conversation-for-conversation a prefix of a
        longer one with the same seed, across block boundaries."""
        short = list(stream_trace(n_sessions=700, seed=5, block_sessions=256))
        long_ = list(stream_trace(n_sessions=1500, seed=5, block_sessions=256))
        assert short == long_[:700]

    def test_arrivals_monotone_and_ids_sequential(self):
        convs = list(stream_trace(n_sessions=900, seed=3, block_sessions=128))
        times = [c.arrival_time for c in convs]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert [c.session_id for c in convs] == list(range(900))

    def test_materialises_into_a_valid_trace(self):
        trace = Trace(conversations=list(stream_trace(n_sessions=50, seed=9)))
        assert len(trace) == 50
        assert trace.n_turns_total >= 50

    def test_block_sessions_must_be_positive(self):
        with pytest.raises(ValueError, match="block_sessions"):
            next(stream_trace(n_sessions=10, seed=1, block_sessions=0))

    def test_same_distributions_as_generate_trace(self):
        """Streamed draws obey the spec's clipping bounds (same helpers
        as generate_trace, so the hard bounds transfer exactly)."""
        from repro.workload import WorkloadSpec

        spec = WorkloadSpec(n_sessions=400, seed=21)
        for conv in stream_trace(spec):
            assert 1 <= conv.n_turns <= spec.max_turns
            for turn in conv.turns:
                assert spec.q_tokens.minimum <= turn.q_tokens <= spec.q_tokens.maximum
                assert spec.a_tokens.minimum <= turn.a_tokens <= spec.a_tokens.maximum


class TestEngineStreamedReplay:
    def test_streamed_replay_bit_identical_to_materialized(self):
        streamed_engine = build_engine()
        streamed = streamed_engine.run(stream_trace(n_sessions=300, seed=4))
        materialized_engine = build_engine()
        trace = Trace(conversations=list(stream_trace(n_sessions=300, seed=4)))
        materialized = materialized_engine.run(trace)
        assert streamed.events_processed == materialized.events_processed
        assert dataclasses.asdict(streamed.summary) == dataclasses.asdict(
            materialized.summary
        )
        assert dataclasses.asdict(streamed_engine.store.stats) == dataclasses.asdict(
            materialized_engine.store.stats
        )

    def test_streamed_replay_drops_finished_sessions(self):
        engine = build_engine()
        engine.run(stream_trace(n_sessions=300, seed=4))
        assert len(engine.sessions) == 0
        assert 0 < engine._peak_live_sessions < 300

    @pytest.mark.parametrize("replay", ["streamed", "materialized", "cluster"])
    def test_finished_sessions_die_without_the_cyclic_gc(self, replay):
        """A finished session must be freed by refcount in every replay:
        ``sim.run()`` pauses the cyclic GC, so a reference cycle through
        the session would keep every finished session alive until the run
        ends.  A materialised trace the caller has deleted must take its
        conversations with it once their sessions finish."""
        gc.collect()
        gc.disable()
        try:
            if replay == "streamed":
                runner = build_engine()
                runner.schedule_trace(stream_trace(n_sessions=200, seed=4))
            else:
                trace = generate_trace(WorkloadSpec(n_sessions=200, seed=4))
                if replay == "materialized":
                    runner = build_engine()
                else:
                    runner = ClusterEngine(
                        get_model("llama-13b"),
                        cluster=ClusterConfig(n_instances=2),
                        engine_config=EngineConfig(batch_size=8),
                    )
                runner.schedule_trace(trace)
                del trace
            runner.sim.run()
            objects = gc.get_objects()
            sessions = sum(isinstance(o, SessionState) for o in objects)
            conversations = sum(isinstance(o, Conversation) for o in objects)
            del objects
        finally:
            gc.enable()
        assert (sessions, conversations) == (0, 0)
        engines = runner.engines if replay == "cluster" else [runner]
        assert [len(engine.sessions) for engine in engines] == [0] * len(engines)

    def test_materialized_replay_drops_finished_sessions(self):
        """A materialised trace keeps only live sessions, as a streamed
        one does."""
        engine = build_engine()
        trace = Trace(conversations=list(stream_trace(n_sessions=50, seed=4)))
        engine.run(trace)
        assert len(engine.sessions) == 0
        assert 0 < engine._peak_live_sessions < 50

    def test_out_of_order_stream_rejected(self):
        turns = (Turn(q_tokens=10, a_tokens=10),)
        convs = [
            Conversation(session_id=0, arrival_time=5.0, turns=turns),
            Conversation(session_id=1, arrival_time=1.0, turns=turns),
        ]
        engine = build_engine()
        with pytest.raises(ValueError, match="arrival-ordered"):
            engine.run(iter(convs))

    def test_repeated_live_session_rejected(self):
        """Session 0 is still thinking before its second turn when its id
        arrives again."""
        turns = (
            Turn(q_tokens=10, a_tokens=10),
            Turn(q_tokens=10, a_tokens=10, think_time=5.0),
        )
        convs = [
            Conversation(session_id=0, arrival_time=0.0, turns=turns),
            Conversation(session_id=0, arrival_time=1.0, turns=turns),
        ]
        engine = build_engine()
        with pytest.raises(ValueError, match="session 0 is already live"):
            engine.run(iter(convs))

    def test_empty_stream_rejected(self):
        engine = build_engine()
        with pytest.raises(ValueError, match="empty"):
            engine.run(iter(()))

    def test_single_conversation_stream(self):
        turns = (Turn(q_tokens=64, a_tokens=32), Turn(q_tokens=16, a_tokens=16, think_time=3.0))
        conv = Conversation(session_id=0, arrival_time=0.0, turns=turns)
        engine = build_engine()
        result = engine.run(iter([conv]))
        assert result.summary.n_turns == 2
        assert len(engine.sessions) == 0
