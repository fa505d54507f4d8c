"""Tests for the scheduler queue (the look-ahead oracle)."""

import pytest

from repro.engine import SchedulerQueue, TurnRequest


def req(sid, turn=0, q=10, a=10, arrival=0.0, gturn=0):
    return TurnRequest(
        session_id=sid,
        turn_index=turn,
        q_tokens=q,
        a_tokens=a,
        arrival_time=arrival,
        global_turn=gturn,
    )


class TestSchedulerQueue:
    def test_fifo_order(self):
        q = SchedulerQueue()
        q.push(req(1))
        q.push(req(2))
        assert q.pop().session_id == 1
        assert q.pop().session_id == 2

    def test_len_and_bool(self):
        q = SchedulerQueue()
        assert not q
        q.push(req(1))
        assert q and len(q) == 1

    def test_peek_does_not_remove(self):
        q = SchedulerQueue()
        q.push(req(1))
        assert q.peek().session_id == 1
        assert len(q) == 1

    def test_peek_empty(self):
        assert SchedulerQueue().peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            SchedulerQueue().pop()

    def test_duplicate_session_rejected(self):
        q = SchedulerQueue()
        q.push(req(1))
        with pytest.raises(ValueError, match="already has a waiting job"):
            q.push(req(1, turn=1))

    def test_session_can_requeue_after_pop(self):
        q = SchedulerQueue()
        q.push(req(1))
        q.pop()
        q.push(req(1, turn=1))
        assert q.position(1) == 0

    def test_positions(self):
        q = SchedulerQueue()
        for sid in (5, 6, 7):
            q.push(req(sid))
        assert q.position(5) == 0
        assert q.position(7) == 2
        assert q.position(99) is None

    def test_positions_shift_on_pop(self):
        q = SchedulerQueue()
        for sid in (5, 6, 7):
            q.push(req(sid))
        q.pop()
        assert q.position(6) == 0
        assert q.position(7) == 1
        assert q.position(5) is None

    def test_head_window(self):
        q = SchedulerQueue()
        for sid in (1, 2, 3):
            q.push(req(sid))
        assert list(q.head_window(2)) == [1, 2]
        assert list(q.head_window(10)) == [1, 2, 3]

    def test_seq_assigned_on_push(self):
        q = SchedulerQueue()
        r = req(1)
        assert r.seq == -1
        q.push(r)
        assert r.seq >= 0


class TestTurnRequest:
    def test_first_turn(self):
        assert req(1, turn=0).is_first_turn
        assert not req(1, turn=3).is_first_turn

    def test_validation(self):
        with pytest.raises(ValueError):
            req(1, q=0)
        with pytest.raises(ValueError):
            req(1, a=0)
