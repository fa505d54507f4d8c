"""The incremental prefetch planner: flat no-op cost, lifecycle edges, and
the SimSan cross-check of its state."""

import pytest

from repro.config import StoreConfig
from repro.engine import SchedulerQueue, TurnRequest
from repro.sanitize import SimSanError, for_simulator
from repro.sim import Channel, Simulator
from repro.store import AttentionStore, KVCacheItem, Tier, plan_prefetches
from repro.store.prefetch import WindowEntry

KB = 1000
ITEM_TOKENS = 10


def request(session_id):
    return TurnRequest(
        session_id=session_id,
        turn_index=0,
        q_tokens=1,
        a_tokens=1,
        arrival_time=0.0,
        global_turn=0,
    )


def make_store(dram_items, disk_items=64, sanitized=True):
    config = StoreConfig(
        dram_bytes=dram_items * ITEM_TOKENS * KB,
        ssd_bytes=disk_items * ITEM_TOKENS * KB,
        block_bytes=KB,
        dram_buffer_fraction=0.0,
        prefetch_capacity_fraction=1.0,
    )
    store = AttentionStore(config, KB, Channel("ssd", 1e9))
    if sanitized:
        for_simulator(Simulator()).install_store(store)
    return store


def reference_fetches(store, queue, pinned):
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


class CountingItem(KVCacheItem):
    """A stored item that counts every attribute read (item probes)."""

    __slots__ = ()
    reads = 0

    def __getattribute__(self, name):
        CountingItem.reads += 1
        return object.__getattribute__(self, name)


class CountingQueue(SchedulerQueue):
    """A scheduler queue that counts the window entries it hands out."""

    entries = 0

    def head_window(self, k):
        return iter(self.head_window_list(k))

    def head_window_list(self, k):
        window = super().head_window_list(k)
        CountingQueue.entries += len(window)
        return window


def no_op_plan_work(backlog, running):
    """Item probes plus window entries of two no-op plans — one after a
    push, one after a pop — with ``backlog`` sessions waiting and
    ``running`` pinned sessions holding DRAM.

    DRAM holds exactly the waiting and running sessions' caches; one more
    waiting session, at the tail, sits on disk just past the window, so the
    §3.3.1 walk charges the whole backlog and fetches nothing.
    """
    store = make_store(dram_items=backlog + running, disk_items=4, sanitized=False)
    on_disk = backlog
    first_running = backlog + 2
    store.save(on_disk, ITEM_TOKENS, 0.0)
    for sid in range(first_running, first_running + running):
        store.save(sid, ITEM_TOKENS, 1.0)
        store.pin(sid)
    for sid in range(backlog):
        store.save(sid, ITEM_TOKENS, 1.0)
    assert store.get(on_disk).tier is Tier.DISK
    queue = CountingQueue()
    for sid in range(backlog + 1):
        queue.push(request(sid))
    assert store.prefetch(queue, 2.0) == []  # builds the planner state
    for sid in store.resident_sessions():
        store.get(sid).__class__ = CountingItem
    CountingItem.reads = CountingQueue.entries = 0

    queue.push(request(backlog + 1))  # a new session: nothing stored yet
    assert store.prefetch(queue, 3.0) == []
    store.pin(queue.pop().session_id)  # the head starts running
    assert store.prefetch(queue, 4.0) == []
    return CountingItem.reads + CountingQueue.entries


class TestNoOpPlanCost:
    def test_no_op_work_does_not_grow_with_the_backlog(self):
        work = {
            (backlog, running): no_op_plan_work(backlog, running)
            for backlog in (100, 10_000)
            for running in (1, 1000)
        }
        assert len(set(work.values())) == 1, work
        assert work[10_000, 1000] < 40


class TestLifecycleEdges:
    """Sequences where a waiting session's cache changes under the
    planner; SimSan checks every plan and the planner state."""

    def setup_method(self):
        # Sessions 0-5 stored, 0-3 spilled to disk; 0-5 waiting.
        self.store = make_store(dram_items=2)
        for sid in range(6):
            self.store.save(sid, ITEM_TOKENS, float(sid))
        self.queue = SchedulerQueue()
        for sid in range(6):
            self.queue.push(request(sid))

    def plan(self, now):
        expected = reference_fetches(
            self.store, self.queue, self.store.pinned_sessions
        )
        issued = [sid for sid, _ in self.store.prefetch(self.queue, now)]
        assert issued == expected
        for sid in issued:  # the fetches land before the next plan
            self.store.complete_fetch(sid)
        return issued

    def test_dropped_then_saved_again(self):
        self.plan(10.0)
        self.store.drop(4)
        self.plan(11.0)
        self.store.save(4, 2 * ITEM_TOKENS, 12.0, queue=self.queue)
        self.plan(13.0)

    def test_truncated(self):
        self.plan(10.0)
        self.store.truncate(4, ITEM_TOKENS // 2)
        self.plan(11.0)

    def test_crash_and_restart_readmit_waiting_sessions(self):
        self.plan(10.0)
        self.store.wipe_volatile(11.0)
        self.plan(12.0)
        self.store.restore_offline(13.0)
        self.plan(14.0)

    def test_migrated_in_while_waiting(self):
        self.plan(10.0)
        self.queue.push(request(9))
        self.plan(11.0)
        self.store.admit_migrated(9, ITEM_TOKENS, 12.0, queue=self.queue)
        self.plan(13.0)

    def test_queue_drained_and_refilled(self):
        self.plan(10.0)
        while self.queue:
            self.queue.pop()
        for sid in (3, 1, 2):
            self.queue.push(request(sid))
        self.store.pin(0)
        self.plan(11.0)


class TestSimSanCrossCheck:
    """A planner whose state drifts from the store is reported with the
    session and queue seq, before the plan issues."""

    def build(self):
        # 12 waiting sessions, the DRAM holds 2: most wait on disk, and
        # the window reaches only the first few.
        store = make_store(dram_items=2)
        queue = SchedulerQueue()
        for sid in range(12):
            store.save(sid, ITEM_TOKENS, float(sid))
            queue.push(request(sid))
        # Plan until nothing more is fetched: no tier change is pending.
        for sid, _ in store.prefetch(queue, 20.0):
            store.complete_fetch(sid)
        assert store.prefetch(queue, 20.0) == []
        assert store.prefetch_planner.changes == []
        return store, queue

    def test_missing_disk_candidate(self):
        store, queue = self.build()
        planner = store.prefetch_planner
        planner._cands.remove(queue.position_map()[0][8])
        with pytest.raises(
            SimSanError, match=r"session 8 at queue seq 8 is on disk but missing"
        ):
            store.prefetch(queue, 21.0)

    def test_plan_diverging_from_the_reference_walk(self):
        store, queue = self.build()
        queue.pop()
        queue.pop()  # the window moves on to sessions 2 and 3, on disk
        store.prefetch_planner._cands.remove(queue.position_map()[0][2])
        with pytest.raises(
            SimSanError,
            match=r"diverged from the reference walk at session 2 \(queue seq 2\)",
        ):
            store.prefetch(queue, 21.0)

    def test_wrong_charge(self):
        store, queue = self.build()
        planner = store.prefetch_planner
        planner._cum[7] += 1
        with pytest.raises(
            SimSanError, match=r"planner charges session 6 at queue seq 6"
        ):
            store.prefetch(queue, 21.0)

    def test_clean_plans_pass(self):
        store, queue = self.build()
        queue.pop()
        queue.push(request(0))
        store.pin(1)
        store.prefetch(queue, 21.0)
