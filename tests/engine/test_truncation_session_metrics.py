"""Tests for truncation policy, session state, metrics and batch state."""

import pytest
from hypothesis import given, strategies as st

from repro.engine import (
    ActiveJob,
    BatchState,
    MetricsCollector,
    SessionState,
    TurnOutcome,
    TurnRecord,
    TurnRequest,
    apply_context_window,
    clamp_decode_tokens,
)
from repro.engine.metrics import OUTCOME_OF_LOOKUP
from repro.store.attention_store import LookupStatus
from repro.workload.trace import Conversation, Turn


class TestApplyContextWindow:
    def test_no_overflow_is_identity(self):
        out = apply_context_window(1000, 100, 4096, 0.5)
        assert out.history_tokens == 1000
        assert out.q_tokens == 100
        assert not out.overflowed

    def test_overflow_drops_half_window(self):
        """Paper example: 4K window, ratio 0.5 -> cut the first 2K."""
        out = apply_context_window(4000, 200, 4096, 0.5)
        assert out.dropped_tokens == 2048
        assert out.history_tokens == 4000 - 2048
        assert out.prompt_tokens <= 4096

    def test_repeated_cuts_until_fit(self):
        out = apply_context_window(10000, 100, 4096, 0.5)
        assert out.prompt_tokens <= 4096
        assert out.history_tokens + out.dropped_tokens == 10000 + 0

    def test_question_clamped_to_window(self):
        out = apply_context_window(0, 5000, 2048, 0.5)
        assert out.q_tokens == 2048
        assert out.dropped_tokens == 5000 - 2048

    def test_history_never_negative(self):
        out = apply_context_window(100, 4000, 4096, 0.5)
        assert out.history_tokens >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_context_window(-1, 10, 100, 0.5)
        with pytest.raises(ValueError):
            apply_context_window(0, 0, 100, 0.5)
        with pytest.raises(ValueError):
            apply_context_window(0, 10, 0, 0.5)
        with pytest.raises(ValueError):
            apply_context_window(0, 10, 100, 1.0)

    @given(
        st.integers(min_value=0, max_value=20000),
        st.integers(min_value=1, max_value=8000),
        st.sampled_from([2048, 4096, 32768]),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_invariants(self, history, q, window, ratio):
        out = apply_context_window(history, q, window, ratio)
        assert out.prompt_tokens <= window
        assert out.history_tokens >= 0
        assert 1 <= out.q_tokens <= q
        # Conservation: dropped + kept == original.
        assert out.dropped_tokens + out.history_tokens + out.q_tokens == history + q


class TestClampDecodeTokens:
    def test_fits(self):
        assert clamp_decode_tokens(100, 50, 4096) == 50

    def test_clamped(self):
        assert clamp_decode_tokens(4000, 500, 4096) == 96

    def test_floor_of_one(self):
        assert clamp_decode_tokens(4096, 500, 4096) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            clamp_decode_tokens(0, 5, 100)
        with pytest.raises(ValueError):
            clamp_decode_tokens(5, 0, 100)


def make_session(turns=3):
    conv = Conversation(
        session_id=1,
        arrival_time=0.0,
        turns=tuple(Turn(10, 20, 0.0 if i == 0 else 5.0) for i in range(turns)),
    )
    return SessionState(conversation=conv)


class TestSessionState:
    def test_initial(self):
        s = make_session()
        assert s.next_turn == 0
        assert s.history_tokens == 0
        assert not s.finished

    def test_serving_accumulates_history(self):
        s = make_session()
        s.record_turn_served(prompt_tokens=10, generated_tokens=20)
        assert s.history_tokens == 30
        assert s.next_turn == 1

    def test_finished(self):
        s = make_session(turns=1)
        s.record_turn_served(10, 20)
        assert s.finished
        with pytest.raises(RuntimeError):
            s.record_turn_served(10, 20)

    def test_truncation_bookkeeping(self):
        s = make_session()
        s.record_turn_served(10, 20)
        s.record_truncation(15)
        assert s.history_tokens == 15

    def test_truncation_zero_is_noop(self):
        s = make_session()
        s.record_turn_served(10, 20)
        s.record_truncation(0)
        assert s.history_tokens == 30

    def test_over_truncation_raises(self):
        s = make_session()
        with pytest.raises(RuntimeError):
            s.record_truncation(5)


def make_record(gturn=0, outcome=TurnOutcome.HIT_DRAM, ttft=0.1, **kw):
    defaults = dict(
        session_id=1,
        turn_index=1,
        global_turn=gturn,
        outcome=outcome,
        arrival_time=0.0,
        prefill_start=1.0,
        prompt_tokens=100,
        new_tokens=10,
        reused_tokens=90,
        generated_tokens=20,
        prefill_gpu_time=ttft,
        completion_time=5.0,
    )
    defaults.update(kw)
    return TurnRecord(**defaults)


class TestMetrics:
    def test_outcome_from_lookup(self):
        assert OUTCOME_OF_LOOKUP[LookupStatus.HIT_DRAM] is TurnOutcome.HIT_DRAM
        assert OUTCOME_OF_LOOKUP[LookupStatus.MISS] is TurnOutcome.MISS
        assert set(OUTCOME_OF_LOOKUP) == set(LookupStatus)

    def test_hit_flags(self):
        assert TurnOutcome.HIT_DISK.is_hit
        assert not TurnOutcome.MISS.is_hit
        assert not TurnOutcome.FIRST_TURN.is_hit

    def test_hit_rate_excludes_first_turns(self):
        m = MetricsCollector()
        m.record_turn(make_record(0, TurnOutcome.FIRST_TURN))
        m.record_turn(make_record(1, TurnOutcome.HIT_DRAM))
        m.record_turn(make_record(2, TurnOutcome.MISS))
        s = m.summarise()
        assert s.n_lookups == 2
        assert s.hit_rate == 0.5
        assert s.dram_hit_rate == 0.5

    def test_warmup_excluded(self):
        m = MetricsCollector(warmup_turns=2)
        m.record_turn(make_record(0, ttft=100.0))
        m.record_turn(make_record(1, ttft=100.0))
        m.record_turn(make_record(2, ttft=1.0))
        s = m.summarise()
        assert s.n_turns == 1
        assert s.mean_ttft == 1.0

    def test_makespan_covers_all_turns(self):
        m = MetricsCollector(warmup_turns=1)
        m.record_turn(make_record(0, arrival_time=0.0, completion_time=10.0))
        m.record_turn(make_record(1, arrival_time=2.0, completion_time=50.0))
        assert m.summarise().makespan == 50.0

    def test_queue_delay(self):
        r = make_record(arrival_time=1.0, prefill_start=4.0)
        assert r.queue_delay == 3.0

    def test_prefill_throughput(self):
        m = MetricsCollector()
        m.record_turn(make_record(0, prompt_tokens=1000, ttft=2.0))
        assert m.summarise().prefill_throughput == 500.0

    def test_gpu_busy_accounting(self):
        m = MetricsCollector()
        m.record_gpu_busy(2.0)
        m.record_gpu_busy(3.0)
        assert m.summarise().total_gpu_busy_time == 5.0
        with pytest.raises(ValueError):
            m.record_gpu_busy(-1.0)

    def test_empty_summary(self):
        s = MetricsCollector().summarise()
        assert s.n_turns == 0
        assert s.hit_rate == 0.0
        assert s.prefill_throughput == 0.0


def make_job(sid, context=100, remaining=10):
    request = TurnRequest(
        session_id=sid,
        turn_index=0,
        q_tokens=10,
        a_tokens=remaining,
        arrival_time=0.0,
        global_turn=0,
    )
    record = make_record(session_id=sid)
    return ActiveJob(
        request=request,
        record=record,
        context_tokens=context,
        remaining_tokens=remaining,
        reserved_tokens=context + remaining,
    )


class TestBatchState:
    def test_add_and_capacity(self):
        b = BatchState(2)
        b.add(make_job(1))
        assert len(b) == 1 and not b.is_full
        b.add(make_job(2))
        assert b.is_full
        with pytest.raises(RuntimeError):
            b.add(make_job(3))

    def test_duplicate_session_rejected(self):
        b = BatchState(4)
        b.add(make_job(1))
        with pytest.raises(ValueError):
            b.add(make_job(1))

    def test_context_sum_tracks_advance(self):
        b = BatchState(4)
        b.add(make_job(1, context=100, remaining=10))
        b.add(make_job(2, context=200, remaining=5))
        assert b.context_sum == 300
        finished = b.advance(5)
        assert [j.session_id for j in finished] == [2]
        # Job 2 left with context 205; job 1 remains with 105.
        assert b.context_sum == 105

    def test_advance_cannot_overshoot(self):
        b = BatchState(2)
        b.add(make_job(1, remaining=3))
        with pytest.raises(ValueError):
            b.advance(4)

    def test_min_remaining(self):
        b = BatchState(4)
        b.add(make_job(1, remaining=10))
        b.add(make_job(2, remaining=3))
        assert b.min_remaining() == 3

    def test_min_remaining_empty_raises(self):
        with pytest.raises(RuntimeError):
            BatchState(2).min_remaining()

    def test_advance_validation(self):
        b = BatchState(2)
        b.add(make_job(1))
        with pytest.raises(ValueError):
            b.advance(0)
