"""Tests for the conversation trace data model."""

import json

import pytest

from repro.workload.trace import Conversation, Trace, Turn, merge_traces


def conv(session_id=0, arrival=0.0, turns=((10, 20, 0.0), (5, 8, 3.0))):
    return Conversation(
        session_id=session_id,
        arrival_time=arrival,
        turns=tuple(Turn(q, a, t) for q, a, t in turns),
    )


class TestTurn:
    def test_total_tokens(self):
        assert Turn(10, 20).total_tokens == 30

    def test_rejects_zero_question(self):
        with pytest.raises(ValueError, match="q_tokens"):
            Turn(0, 5)

    def test_rejects_zero_answer(self):
        with pytest.raises(ValueError, match="a_tokens"):
            Turn(5, 0)

    def test_rejects_negative_think_time(self):
        with pytest.raises(ValueError, match="think_time"):
            Turn(5, 5, -1.0)

    def test_default_think_time_is_zero(self):
        assert Turn(1, 1).think_time == 0.0


class TestConversation:
    def test_counts(self):
        c = conv()
        assert c.n_turns == 2
        assert c.is_multi_turn
        assert c.total_tokens == 43

    def test_single_turn_not_multi(self):
        c = conv(turns=((10, 20, 0.0),))
        assert not c.is_multi_turn

    def test_history_before_first_turn_is_zero(self):
        assert conv().history_tokens_before(0) == 0

    def test_history_accumulates(self):
        assert conv().history_tokens_before(1) == 30

    def test_history_out_of_range(self):
        with pytest.raises(IndexError):
            conv().history_tokens_before(2)

    def test_rejects_empty_turns(self):
        with pytest.raises(ValueError, match="at least one turn"):
            Conversation(session_id=0, arrival_time=0.0, turns=())

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError, match="arrival_time"):
            conv(arrival=-1.0)


class TestTrace:
    def test_sorted_by_arrival(self):
        t = Trace(conversations=[conv(1, 5.0), conv(0, 2.0)])
        assert [c.session_id for c in t] == [0, 1]

    def test_rejects_duplicate_session_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Trace(conversations=[conv(0), conv(0, 1.0)])

    def test_totals(self):
        t = Trace(conversations=[conv(0), conv(1, 1.0)])
        assert t.n_turns_total == 4
        assert t.n_tokens_total == 86

    def test_json_roundtrip(self):
        t = Trace(conversations=[conv(0), conv(1, 1.0)], metadata={"seed": 1})
        restored = Trace.from_json(t.to_json())
        assert len(restored) == 2
        assert restored.metadata == {"seed": 1}
        assert restored.conversations[0].turns == t.conversations[0].turns

    def test_json_is_valid_json(self):
        payload = json.loads(Trace(conversations=[conv(0)]).to_json())
        assert "conversations" in payload

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError, match=f"think_time .* got {bad}"):
            Turn(5, 5, bad)
        with pytest.raises(ValueError, match=f"arrival_time .* got {bad}"):
            conv(arrival=bad)
        # json.dumps writes NaN/Infinity and json.loads reads them back.
        good = json.loads(Trace(conversations=[conv(0)]).to_json())
        good["conversations"][0]["arrival_time"] = bad
        with pytest.raises(ValueError, match="arrival_time"):
            Trace.from_json(json.dumps(good))
        good["conversations"][0]["arrival_time"] = 0.0
        good["conversations"][0]["turns"][1][2] = bad
        with pytest.raises(ValueError, match="think_time"):
            Trace.from_json(json.dumps(good))

    def test_save_load(self, tmp_path):
        t = Trace(conversations=[conv(0)])
        path = tmp_path / "trace.json"
        t.save(path)
        assert len(Trace.load(path)) == 1


class TestMergeTraces:
    def test_renumbers_sessions(self):
        a = Trace(conversations=[conv(0)])
        b = Trace(conversations=[conv(0, 1.0)])
        merged = merge_traces([a, b])
        assert sorted(c.session_id for c in merged) == [0, 1]

    def test_preserves_turn_data(self):
        a = Trace(conversations=[conv(0)])
        merged = merge_traces([a])
        assert merged.conversations[0].total_tokens == 43

    def test_empty_merge(self):
        assert len(merge_traces([])) == 0
