"""Tests for storage tiers and eviction policies."""

import pytest

from repro.store import (
    FIFOPolicy,
    KVCacheItem,
    ListQueueView,
    LRUPolicy,
    SchedulerAwarePolicy,
    StorageTier,
    Tier,
)
from repro.store.policy import EmptyQueueView


def make_item(sid, n_tokens=10, last_access=0.0, bytes_per_token=10):
    return KVCacheItem(
        session_id=sid,
        n_tokens=n_tokens,
        n_bytes=n_tokens * bytes_per_token,
        tier=Tier.DRAM,
        last_access=last_access,
    )


def make_tier(capacity=10_000, block=10):
    return StorageTier(Tier.DRAM, capacity, block)


class TestStorageTier:
    def test_admit_and_lookup(self):
        tier = make_tier()
        tier.admit(make_item(1))
        assert 1 in tier
        assert tier.get(1).session_id == 1
        assert len(tier) == 1

    def test_admit_duplicate_rejected(self):
        tier = make_tier()
        tier.admit(make_item(1))
        with pytest.raises(ValueError, match="already resident"):
            tier.admit(make_item(1))

    def test_remove_frees_blocks(self):
        tier = make_tier()
        tier.admit(make_item(1, n_tokens=50))
        used = tier.used_bytes
        assert used == 500
        tier.remove(1)
        assert tier.used_bytes == 0

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            make_tier().remove(42)

    def test_fifo_order_is_admission_order(self):
        tier = make_tier()
        for sid in (3, 1, 2):
            tier.admit(make_item(sid))
        assert [i.session_id for i in tier.iter_fifo()] == [3, 1, 2]

    def test_lru_order_updates_on_touch(self):
        tier = make_tier()
        for sid in (1, 2, 3):
            tier.admit(make_item(sid))
        tier.touch(1)
        assert [i.session_id for i in tier.iter_lru()] == [2, 3, 1]

    def test_touch_missing_is_noop(self):
        make_tier().touch(99)

    def test_resize(self):
        tier = make_tier()
        tier.admit(make_item(1, n_tokens=50))
        tier.resize(1, 20, 200)
        item = tier.get(1)
        assert item.n_tokens == 20
        assert item.n_bytes == 200
        assert tier.used_bytes == 200

    def test_can_fit(self):
        tier = make_tier(capacity=100, block=10)
        tier.admit(make_item(1, n_tokens=5))  # 50 bytes
        assert tier.can_fit(50)
        assert not tier.can_fit(51)


class TestLRUPolicy:
    def test_picks_least_recent(self):
        tier = make_tier()
        tier.admit(make_item(1))
        tier.admit(make_item(2))
        tier.touch(1)
        victim = LRUPolicy().choose_victim(tier, EmptyQueueView())
        assert victim.session_id == 2

    def test_respects_pinned(self):
        tier = make_tier()
        tier.admit(make_item(1))
        tier.admit(make_item(2))
        victim = LRUPolicy().choose_victim(tier, EmptyQueueView(), frozenset({1}))
        assert victim.session_id == 2

    def test_all_pinned_returns_none(self):
        tier = make_tier()
        tier.admit(make_item(1))
        assert LRUPolicy().choose_victim(tier, EmptyQueueView(), frozenset({1})) is None

    def test_skips_in_flight(self):
        tier = make_tier()
        a = make_item(1)
        a.fetch_in_flight = True
        tier.admit(a)
        tier.admit(make_item(2))
        assert LRUPolicy().choose_victim(tier, EmptyQueueView()).session_id == 2


class TestFIFOPolicy:
    def test_picks_earliest_admitted(self):
        tier = make_tier()
        tier.admit(make_item(2))
        tier.admit(make_item(1))
        tier.touch(2)  # LRU would now pick 1; FIFO must still pick 2
        assert FIFOPolicy().choose_victim(tier, EmptyQueueView()).session_id == 2


class TestSchedulerAwarePolicy:
    def test_prefers_item_outside_window(self):
        tier = make_tier()
        tier.admit(make_item(1))
        tier.admit(make_item(2))
        queue = ListQueueView([1])  # session 1 has an upcoming job
        victim = SchedulerAwarePolicy().choose_victim(tier, queue)
        assert victim.session_id == 2

    def test_all_in_window_evicts_furthest(self):
        """Section 3.3.2: the window is scanned tail-to-head."""
        tier = make_tier()
        for sid in (1, 2, 3):
            tier.admit(make_item(sid))
        queue = ListQueueView([2, 3, 1])  # session 1 is furthest away
        victim = SchedulerAwarePolicy().choose_victim(tier, queue)
        assert victim.session_id == 1

    def test_window_limit_cuts_protection(self):
        tier = make_tier()
        tier.admit(make_item(1))
        tier.admit(make_item(2))
        queue = ListQueueView([1, 2])
        # Window of 1: session 2's job is beyond the look-ahead window, so
        # it is treated as outside and evicted first.
        victim = SchedulerAwarePolicy(window_limit=1).choose_victim(tier, queue)
        assert victim.session_id == 2

    def test_empty_queue_falls_back_to_lru(self):
        tier = make_tier()
        tier.admit(make_item(1, last_access=5.0))
        tier.admit(make_item(2, last_access=1.0))
        tier.touch(2)
        tier.touch(1)  # LRU order: 2 then 1
        tier.touch(2)  # LRU order: 1 then 2
        victim = SchedulerAwarePolicy().choose_victim(tier, EmptyQueueView())
        assert victim.session_id == 1

    def test_pinned_never_chosen(self):
        tier = make_tier()
        tier.admit(make_item(1))
        victim = SchedulerAwarePolicy().choose_victim(
            tier, EmptyQueueView(), frozenset({1})
        )
        assert victim is None

    def test_exact_scan_beyond_scan_limit(self):
        """Every resident queued: the furthest job's item goes, however
        many residents there are."""
        n = 300
        tier = make_tier(capacity=n * 1000)
        for sid in range(n):
            tier.admit(make_item(sid))
        # Every session queued; furthest is the queue tail.
        queue = ListQueueView(list(range(n)))
        victim = SchedulerAwarePolicy().choose_victim(tier, queue)
        assert victim.session_id == n - 1


class TestListQueueView:
    def test_position(self):
        q = ListQueueView([5, 7, 5])
        assert q.position(5) == 0  # first occurrence
        assert q.position(7) == 1
        assert q.position(9) is None

    def test_windows(self):
        q = ListQueueView([1, 2, 3])
        assert list(q.head_window(2)) == [1, 2]
        assert q.head_window_list(2) == [1, 2]
        assert len(q) == 3
