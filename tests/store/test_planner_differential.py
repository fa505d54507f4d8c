"""Differential tests of the §3.3 look-ahead decisions against references.

Hypothesis drives a ``SchedulerQueue`` through interleaved pushes and
pops while the store's items move between tiers (DRAM, disk, fetch in
flight, dropped, truncated, migrated out and back) under
random capacities, and sessions are pinned and unpinned as the engine
pins running jobs.  The references take the test's own pinned set, which
must always equal the store's.  After every queue change, as the engine
does, the fetches ``AttentionStore.prefetch`` issues are compared with
the decisions of the reference window walk ``plan_prefetches``; at
random points ``SchedulerAwarePolicy.choose_victim`` is compared with a
brute-force reading of the §3.3.2 rule, window limits shorter than the
queue included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StoreConfig
from repro.engine import SchedulerQueue, TurnRequest
from repro.sanitize import for_simulator
from repro.sim import Channel, Simulator
from repro.store import (
    AttentionStore,
    ListQueueView,
    SchedulerAwarePolicy,
    Tier,
    plan_prefetches,
)
from repro.store.prefetch import WindowEntry

KB = 1000
N_SESSIONS = 12
MAX_TOKENS = 8


def make_store(dram_kb, fraction, buffer_fraction):
    config = StoreConfig(
        dram_bytes=dram_kb * KB,
        ssd_bytes=4 * N_SESSIONS * MAX_TOKENS * KB,
        block_bytes=KB,
        dram_buffer_fraction=buffer_fraction,
        prefetch_capacity_fraction=fraction,
    )
    return AttentionStore(config, KB, Channel("ssd", 1e9))


def request(session_id):
    return TurnRequest(
        session_id=session_id,
        turn_index=0,
        q_tokens=1,
        a_tokens=1,
        arrival_time=0.0,
        global_turn=0,
    )


def reference_fetches(store, queue, pinned):
    """Session ids the §3.3.1 window walk fetches in the current state."""
    if len(queue) == 0 or not store.disk_tier.session_ids():
        return []
    dram = store.dram_tier
    pinned_bytes = sum(store.get(sid).n_bytes for sid in pinned if sid in dram)
    budget = int(
        max(0, dram.capacity_bytes - pinned_bytes)
        * store.config.prefetch_capacity_fraction
    )

    def residency(sid):
        item = store.get(sid)
        if item is None:
            return None
        return WindowEntry(
            item.n_bytes, item.tier is Tier.DISK and not item.fetch_in_flight
        )

    decisions = plan_prefetches(queue, residency, budget, store.avg_item_bytes)
    return [decision.session_id for decision in decisions]


def issue_cannot_fail(store, pinned, fetches):
    """Whether every planned fetch finds DRAM room: pinned and in-flight
    items cannot be evicted, and the disk is large enough that demotions
    never displace a planned item."""
    held = sum(
        item.n_bytes
        for item in store.dram_tier.iter_fifo()
        if item.session_id in pinned or item.fetch_in_flight
    )
    planned = sum(store.get(sid).n_bytes for sid in fetches)
    return held + planned <= store.dram_tier.capacity_bytes


def check_prefetch(store, queue, pinned, now):
    expected = reference_fetches(store, queue, pinned)
    feasible = issue_cannot_fail(store, pinned, expected)
    issued = [sid for sid, _ready in store.prefetch(queue, now)]
    if feasible:
        assert issued == expected
    else:
        # A fetch can only be skipped, never added or reordered.
        assert issued == [sid for sid in expected if sid in issued]
    return issued


def reference_victim(tier, queue, pinned, window_limit):
    """§3.3.2 by brute force: LRU-first among items outside the window;
    otherwise the item whose job is furthest from the queue head."""
    limit = len(queue) if window_limit is None else window_limit
    candidates = [
        item
        for item in tier.iter_lru()
        if item.session_id not in pinned and not item.fetch_in_flight
    ]
    for item in candidates:
        position = queue.position(item.session_id)
        if position is None or position >= limit:
            return item
    if not candidates:
        return None
    return max(candidates, key=lambda item: queue.position(item.session_id))


session = st.integers(0, N_SESSIONS - 1)
operation = st.one_of(
    st.tuples(st.just("push"), session, st.just(0)),
    st.tuples(st.just("pop"), st.just(0), st.booleans()),
    st.tuples(st.just("save"), session, st.integers(1, MAX_TOKENS)),
    st.tuples(st.just("truncate"), session, st.integers(0, MAX_TOKENS)),
    st.tuples(st.just("drop"), session, st.just(0)),
    st.tuples(st.just("pin"), session, st.just(0)),
    st.tuples(st.just("unpin"), session, st.just(0)),
    st.tuples(st.just("migrate"), session, st.just(0)),
    st.tuples(st.just("complete"), session, st.just(0)),
    st.tuples(st.just("prefetch"), st.just(0), st.just(0)),
    st.tuples(st.just("victim"), st.just(0), st.integers(-1, N_SESSIONS + 1)),
)


class TestPlannerDifferential:
    @pytest.mark.parametrize("sanitized", [False, True])
    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(1, MAX_TOKENS), min_size=N_SESSIONS, max_size=N_SESSIONS
        ),
        waiting=st.lists(session, unique=True, max_size=N_SESSIONS),
        ops=st.lists(operation, min_size=1, max_size=80),
        dram_kb=st.integers(8, 48),
        fraction=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        buffer_fraction=st.sampled_from([0.0, 0.1]),
    )
    def test_scheduler_queue_matches_references(
        self, sanitized, sizes, waiting, ops, dram_kb, fraction, buffer_fraction
    ):
        """With ``sanitized``, SimSan also checks every plan and the
        planner's state against a recomputation."""
        store = make_store(dram_kb, fraction, buffer_fraction)
        if sanitized:
            for_simulator(Simulator()).install_store(store)
        queue = SchedulerQueue()
        pinned: set[int] = set()
        # Every session saved once: the DRAM overflows to disk.
        for sid, tokens in enumerate(sizes):
            store.save(sid, tokens, 0.0)
        for sid in waiting:
            queue.push(request(sid))
        now = 0.0
        check_prefetch(store, queue, pinned, now)
        for op, sid, arg in ops:
            now += 1.0
            if op == "push":
                if queue.position(sid) is None:
                    queue.push(request(sid))
                    check_prefetch(store, queue, pinned, now)
            elif op == "pop":
                if queue:
                    popped = queue.pop().session_id
                    if arg:
                        pinned.add(popped)
                        store.pin(popped)
                    check_prefetch(store, queue, pinned, now)
            elif op == "save":
                store.save(sid, arg, now, queue=queue)
            elif op == "truncate":
                store.truncate(sid, arg)
            elif op == "drop":
                store.drop(sid)
            elif op == "pin":
                pinned.add(sid)
                store.pin(sid)
            elif op == "unpin":
                pinned.discard(sid)
                store.unpin(sid)
            elif op == "migrate":
                # Out and back in: a disk item returns to DRAM.
                item = store.extract(sid)
                if item is not None:
                    store.admit_migrated(sid, item.n_tokens, now, queue=queue)
            elif op == "complete":
                store.complete_fetch(sid)
            elif op == "prefetch":
                check_prefetch(store, queue, pinned, now)
            else:
                window_limit = None if arg < 0 else arg
                policy = SchedulerAwarePolicy(window_limit=window_limit)
                for tier in (store.dram_tier, store.disk_tier):
                    assert policy.choose_victim(
                        tier, queue, pinned
                    ) is reference_victim(tier, queue, pinned, window_limit)
            assert store.pinned_sessions == pinned
            store.check_invariants()

    @settings(max_examples=100, deadline=None)
    @given(
        saves=st.lists(
            st.tuples(session, st.integers(1, MAX_TOKENS)), min_size=1, max_size=30
        ),
        waiting=st.lists(session, max_size=2 * N_SESSIONS),
        pinned=st.frozensets(session, max_size=4),
        dram_kb=st.integers(4, 40),
        fraction=st.sampled_from([0.1, 0.5, 1.0]),
        window_limit=st.one_of(st.none(), st.integers(0, 2 * N_SESSIONS)),
    )
    def test_list_view_with_repeats_matches_references(
        self, saves, waiting, pinned, dram_kb, fraction, window_limit
    ):
        """A ``ListQueueView`` may repeat a session; it is planned (and its
        victims chosen) by its first occurrence."""
        store = make_store(dram_kb, fraction, 0.0)
        for sid in pinned:
            store.pin(sid)
        for now, (sid, tokens) in enumerate(saves):
            store.save(sid, tokens, float(now))
        queue = ListQueueView(waiting)
        policy = SchedulerAwarePolicy(window_limit=window_limit)
        for tier in (store.dram_tier, store.disk_tier):
            assert policy.choose_victim(tier, queue, pinned) is reference_victim(
                tier, queue, pinned, window_limit
            )
        check_prefetch(store, queue, pinned, float(len(saves)))
        # The same view again: whatever the first plan left is planned from
        # the state it left behind.
        check_prefetch(store, queue, pinned, float(len(saves) + 1))
