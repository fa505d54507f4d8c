"""Tests for the discrete-event simulation substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Channel, ChannelPair, SimClock, Simulator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_rejects_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(5.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_to_same_time_ok(self):
        clock = SimClock(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0


class TestEventQueue:
    """The simulator's event heap: ``(time, seq)`` order."""

    def test_orders_by_time(self):
        sim = Simulator()
        fired = []
        sim.at(2.0, lambda: fired.append("b"))
        sim.at(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_ties_broken_by_insertion(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.after(1.0, lambda: fired.append(2))
        sim.at(1.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1, 2, 3]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Simulator().at(-1.0, lambda: None)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        sim = Simulator()
        popped = []
        for i, t in enumerate(times):
            sim.at(t, lambda i=i: popped.append((sim.now, i)))
        sim.run()
        # Sorted by time, ties in scheduling order.
        assert popped == sorted((t, i) for i, t in enumerate(times))


class TestSimulator:
    def test_runs_in_order(self):
        sim = Simulator()
        seen = []
        sim.at(3.0, lambda: seen.append(3))
        sim.at(1.0, lambda: seen.append(1))
        sim.run()
        assert seen == [1, 3]
        assert sim.now == 3.0

    def test_after_is_relative(self):
        sim = Simulator(start=10.0)
        times = []
        sim.after(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [15.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.after(2.0, lambda: seen.append(("inner", sim.now)))

        sim.at(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 3.0)]

    def test_run_until_stops(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: seen.append(1))
        sim.at(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_rejects_past_scheduling(self):
        sim = Simulator(start=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.at(1.0, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_rejects_non_finite_time(self, time):
        sim = Simulator()
        with pytest.raises(ValueError, match=str(time)):
            sim.at(time, lambda: None)
        with pytest.raises(ValueError, match=str(time)):
            sim.after(time, lambda: None)
        # Nothing was queued: the run returns at once.
        sim.run(max_events=0)
        assert sim.events_processed == 0

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.after(0.0, loop)

        sim.at(0.0, loop)
        with pytest.raises(RuntimeError, match="events"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_ties_fire_in_insertion_order(self):
        """Same-time events scheduled from inside a callback queue behind
        the ones already pending at that time."""
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.after(0.0, lambda: fired.append("nested"))

        sim.at(1.0, first)
        sim.at(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "nested"]

    def test_advance_to_called_once_per_unique_timestamp(self):
        """The clock moves once per timestamp, not once per event."""
        sim = Simulator()

        class CountingClock:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            @property
            def _now(self):
                return self._inner._now

            @property
            def now(self):
                return self._inner.now

            def advance_to(self, time):
                self.calls += 1
                self._inner.advance_to(time)

        fired = []
        for t in (0.0, 0.0, 1.0, 1.0, 1.0, 2.0):
            sim.at(t, lambda t=t: fired.append(t))
        counting = CountingClock(sim.clock)
        sim.clock = counting
        sim.run()
        assert fired == [0.0, 0.0, 1.0, 1.0, 1.0, 2.0]
        # t=0.0 needs no advance (the clock starts there); 1.0 and 2.0
        # take one call each however many events share them.
        assert counting.calls == 2

    def test_raising_callback_is_consumed_and_run_resumes(self):
        """The raising event is consumed, later same-time events stay
        queued and the run can resume."""
        sim = Simulator()
        seen = []

        def boom():
            seen.append("boom")
            raise RuntimeError("kaboom")

        sim.at(1.0, lambda: seen.append("a"))
        sim.at(1.0, boom)
        sim.at(1.0, lambda: seen.append("b"))
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()
        assert seen == ["a", "boom"]
        assert sim.events_processed == 1
        sim.run()
        assert seen == ["a", "boom", "b"]
        assert sim.events_processed == 2

    def test_max_events_splits_a_same_time_group(self):
        """``max_events`` raises before the event that would exceed it,
        even partway through events sharing one timestamp."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.at(1.0, lambda i=i: fired.append(i))
        with pytest.raises(RuntimeError, match="exceeded 3 events"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5


class TestTieShuffle:
    """The ``tie_shuffle`` fixture reorders ties and nothing else."""

    @pytest.mark.parametrize("seed", range(5))
    def test_ties_fire_once_each_out_of_scheduling_order(self, tie_shuffle, seed):
        tie_shuffle(seed)
        sim = Simulator()
        fired = []
        for i in range(20):
            sim.at(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert sorted(fired) == list(range(20))
        assert fired != list(range(20))

    def test_later_events_still_fire_later(self, tie_shuffle):
        tie_shuffle(0)
        sim = Simulator()
        fired = []
        for t in (3.0, 1.0, 2.0, 1.0, 3.0, 2.0):
            sim.at(t, lambda t=t: fired.append((t, sim.now)))
        sim.run()
        assert [t for t, _ in fired] == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert all(t == now for t, now in fired)

    def test_zero_delay_child_fires_at_its_parents_time(self, tie_shuffle):
        tie_shuffle(0)
        sim = Simulator()
        fired = []

        def parent(i):
            fired.append(("parent", i, sim.now))
            sim.after(0.0, lambda: fired.append(("child", i, sim.now)))

        for i in range(10):
            sim.at(1.0, lambda i=i: parent(i))
        sim.at(2.0, lambda: fired.append(("later", None, sim.now)))
        sim.run()
        assert fired[-1] == ("later", None, 2.0)
        for i in range(10):
            assert fired.index(("parent", i, 1.0)) < fired.index(("child", i, 1.0))


class TestChannel:
    def test_duration(self):
        ch = Channel("x", bandwidth=100.0)
        assert ch.duration(50) == pytest.approx(0.5)

    def test_transfer_when_idle(self):
        ch = Channel("x", bandwidth=100.0)
        assert ch.transfer(0.0, 100) == pytest.approx(1.0)

    def test_transfers_queue_fifo(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        assert ch.transfer(0.0, 100) == pytest.approx(2.0)

    def test_idle_gap_resets_queue(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        assert ch.transfer(10.0, 100) == pytest.approx(11.0)

    def test_accounting(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        ch.transfer(0.0, 300)
        assert ch.bytes_moved == 400
        assert ch.busy_time == pytest.approx(4.0)

    def test_utilisation(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        assert ch.utilisation(2.0) == pytest.approx(0.5)
        assert ch.utilisation(0.0) == 0.0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            Channel("x", bandwidth=0.0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            Channel("x", bandwidth=1.0).duration(-1)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_completions_monotone_for_sorted_issues(self, requests):
        """FIFO property: issuing in time order completes in time order."""
        ch = Channel("x", bandwidth=1e3)
        completions = [
            ch.transfer(now, n) for now, n in sorted(requests, key=lambda r: r[0])
        ]
        assert completions == sorted(completions)

    @given(
        st.floats(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_transfer_never_faster_than_bandwidth(self, now, n_bytes):
        ch = Channel("x", bandwidth=1e3)
        done = ch.transfer(now, n_bytes)
        assert done >= now + n_bytes / 1e3 - 1e-9


class TestChannelPair:
    def test_slower_first_hop_dominates(self):
        slow = Channel("ssd", bandwidth=100.0)
        fast = Channel("pcie", bandwidth=1000.0)
        done = ChannelPair(slow, fast).transfer(0.0, 1000)
        # Streaming: the 10s first hop dominates; the second hop drains
        # concurrently as bytes arrive.
        assert done == pytest.approx(10.0)

    def test_slower_second_hop_dominates(self):
        fast = Channel("ssd", bandwidth=1000.0)
        slow = Channel("pcie", bandwidth=100.0)
        done = ChannelPair(fast, slow).transfer(0.0, 1000)
        assert done == pytest.approx(10.0)

    def test_second_hop_queueing_respected(self):
        first = Channel("ssd", bandwidth=1000.0)
        second = Channel("pcie", bandwidth=1000.0)
        second.transfer(0.0, 5000)  # second hop busy until t=5
        done = ChannelPair(first, second).transfer(0.0, 1000)
        assert done == pytest.approx(6.0)

    def test_both_channels_occupied(self):
        slow = Channel("ssd", bandwidth=100.0)
        fast = Channel("pcie", bandwidth=1000.0)
        ChannelPair(slow, fast).transfer(0.0, 1000)
        assert slow.bytes_moved == 1000
        assert fast.bytes_moved == 1000
