"""Tests for the AttentionStore facade."""

import pytest

from repro.config import EvictionPolicyName, StoreConfig
from repro.sanitize import for_simulator
from repro.sim import Channel, Simulator
from repro.store import (
    AttentionStore,
    ListQueueView,
    LookupStatus,
    Tier,
    make_policy,
)

KB = 1000


def make_store(
    dram_items=4,
    disk_items=16,
    item_tokens=10,
    bytes_per_token=KB,
    **config_overrides,
):
    """Store sized in units of a ``item_tokens``-token item."""
    item_bytes = item_tokens * bytes_per_token
    config = StoreConfig(
        dram_bytes=dram_items * item_bytes,
        ssd_bytes=disk_items * item_bytes,
        block_bytes=bytes_per_token,
        dram_buffer_fraction=0.0,
        **config_overrides,
    )
    return AttentionStore(config, bytes_per_token, Channel("ssd", 1e9))


class TestSaveAndLookup:
    def test_miss_when_absent(self):
        store = make_store()
        assert store.lookup(1, 0.0).status is LookupStatus.MISS

    def test_save_then_hit_dram(self):
        store = make_store()
        store.save(1, 10, now=0.0)
        result = store.lookup(1, 1.0)
        assert result.status is LookupStatus.HIT_DRAM
        assert result.n_tokens == 10

    def test_save_replaces_existing(self):
        store = make_store()
        store.save(1, 10, now=0.0)
        store.save(1, 20, now=1.0)
        assert store.lookup(1, 2.0).n_tokens == 20
        assert len(store) == 1

    def test_save_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            make_store().save(1, 0, now=0.0)

    def test_item_larger_than_dram_rejected(self):
        store = make_store(dram_items=1, item_tokens=10)
        assert store.save(1, 11, now=0.0) is None
        assert store.stats.save_rejections == 1

    def test_lookup_touches_lru(self):
        store = make_store(dram_items=2)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)
        store.lookup(1, 2.0)  # 1 becomes most recent
        store.save(3, 10, now=3.0)  # needs an eviction: victim must be 2
        assert store.get(2).tier is Tier.DISK
        assert store.get(1).tier is Tier.DRAM


class TestRejectedReplaceKeepsOldItem:
    """Regression: a rejected replacement save must not destroy the
    session's previous (still reusable) cached prefix."""

    def test_oversized_replacement_keeps_previous_item(self):
        store = make_store(dram_items=4, item_tokens=10)
        store.save(1, 10, now=0.0)
        assert store.save(1, 50, now=1.0) is None  # 50 tokens > 40-token DRAM
        assert store.stats.save_rejections == 1
        result = store.lookup(1, 2.0)
        assert result.status is LookupStatus.HIT_DRAM
        assert result.n_tokens == 10
        store.check_invariants()

    def test_pinned_eviction_failure_keeps_previous_item(self):
        store = make_store(dram_items=2)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)
        # Growing session 1 to 20 tokens needs session 2's space, but 2 is
        # pinned: the save is rejected and 1's old item must survive.
        store.pin(2)
        assert store.save(1, 20, now=2.0) is None
        assert store.lookup(1, 3.0).n_tokens == 10
        assert store.get(2).tier is Tier.DRAM
        store.check_invariants()

    def test_rejected_replacement_keeps_old_disk_item(self):
        """A refused save evicts nothing: session 3 is not demoted into
        the disk slot session 1's old item left, so that item returns."""
        store = make_store(dram_items=2, disk_items=1)
        for sid in (1, 2, 3):  # session 1 spills to disk
            store.save(sid, 10, now=float(sid))
        assert store.get(1).tier is Tier.DISK
        moved = store.ssd.bytes_moved
        store.pin(2)
        assert store.save(1, 20, now=4.0) is None
        assert store.stats.save_rejections == 1
        assert store.stats.evicted_out == 0
        assert store.get(1).tier is Tier.DISK
        assert store.get(3).tier is Tier.DRAM
        assert store.ssd.bytes_moved == moved
        store.check_invariants()

    def test_rejected_replacement_preserves_disk_dirty_state(self):
        store = make_store(dram_items=2, disk_items=20)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)
        store.save(3, 10, now=2.0)  # spills 1 to disk (10 tokens written)
        assert store.ssd.bytes_moved == 10 * KB
        store.save(1, 12, now=3.0)  # promote-by-replace back into DRAM
        assert store.save(1, 50, now=4.0) is None  # oversized: rejected
        assert store.lookup(1, 5.0).n_tokens == 12
        # Delta write-back bookkeeping survived the failed replace: a
        # re-spill of session 1 writes only the 2 new tokens.
        before = store.ssd.bytes_moved
        store.save(4, 10, now=6.0)
        store.save(5, 10, now=7.0)
        assert store.ssd.bytes_moved - before == 2 * KB
        store.check_invariants()


class TestPlanSizing:
    """A DRAM placement applies only the victims that make it land."""

    def test_refused_prefetch_evicts_nothing(self):
        # DRAM (40 blocks): session 2 pinned, the prefix it reads, and
        # session 3; session 1's 25 tokens are on disk.  Evicting session
        # 3 would leave 20 free blocks, short of the fetch's 25.
        store = make_store(prefetch_capacity_fraction=1.0)
        store.save(1, 25, now=0.0)
        store.save(2, 10, now=1.0)
        assert store.register_shared("h", 10, now=2.0)  # demotes session 1
        store.save(3, 10, now=3.0)
        store.acquire_shared("h", 2)
        store.pin(2)
        assert store.get(1).tier is Tier.DISK
        residents = list(store.dram_tier.lru_order())
        moved = store.ssd.bytes_moved
        assert store.prefetch(ListQueueView([1]), now=4.0) == []
        assert list(store.dram_tier.lru_order()) == residents
        assert store.get(1).tier is Tier.DISK
        assert store.ssd.bytes_moved == moved
        assert store.stats.evicted_to_disk == 1
        store.check_invariants()

    def test_headroom_short_save_evicts_only_the_items_room(self):
        # 40 DRAM blocks, 10 of them headroom.  Session 3 (20) is pinned
        # and sessions 1 and 2 (5 each) evictable, with 10 blocks free: a
        # 15-block save wants 25 and can reach 20, so it demotes session 1
        # alone, the 5 blocks it lacks, and leaves session 2 in DRAM.
        config = StoreConfig(
            dram_bytes=40 * KB,
            ssd_bytes=160 * KB,
            block_bytes=KB,
            dram_buffer_fraction=0.25,
        )
        store = AttentionStore(config, KB, Channel("ssd", 1e9))
        store.save(3, 20, now=0.0)
        store.save(1, 5, now=1.0)
        store.save(2, 5, now=2.0)
        store.pin(3)
        assert store.dram_tier.free_blocks == 10
        assert store.save(4, 15, now=3.0) is not None
        assert store.get(1).tier is Tier.DISK
        assert store.get(2).tier is Tier.DRAM
        assert store.dram_tier.free_blocks == 0
        assert store.stats.evicted_to_disk == 1
        assert store.ssd.bytes_moved == 5 * KB
        store.check_invariants()


class TestEvictionCascade:
    def test_dram_overflow_demotes_to_disk(self):
        store = make_store(dram_items=2)
        for sid in range(3):
            store.save(sid, 10, now=float(sid))
        assert store.get(0).tier is Tier.DISK
        assert store.stats.evicted_to_disk == 1

    def test_disk_overflow_evicts_out(self):
        store = make_store(dram_items=1, disk_items=1)
        for sid in range(3):
            store.save(sid, 10, now=float(sid))
        assert len(store) == 2
        assert store.stats.evicted_out == 1
        assert 0 not in store

    def test_disk_plan_runs_as_taken(self):
        """A demotion the disk cannot take still drops the disk victims it
        took: the disk plan is applied as taken, not listed and sized."""
        config = StoreConfig(
            dram_bytes=25 * KB,
            ssd_bytes=20 * KB,
            block_bytes=KB,
            dram_buffer_fraction=0.0,
        )
        store = AttentionStore(config, KB, Channel("ssd", 1e9))
        for sid, tokens in ((1, 10), (2, 10), (3, 15), (4, 10)):
            store.save(sid, tokens, now=float(sid))  # spills 1, then 2
        store.pin(1)
        # Session 3 (15 blocks) leaves DRAM; the disk takes session 2 (10
        # blocks) for it, cannot take pinned session 1, and drops 3 too.
        store.save(5, 15, now=5.0)
        assert 2 not in store and 3 not in store
        assert store.get(1).tier is Tier.DISK
        assert store.stats.evicted_out == 2
        store.check_invariants()

    def test_scheduler_aware_protects_queued(self):
        store = make_store(dram_items=2)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)
        queue = ListQueueView([1])  # session 1 has an upcoming job
        store.save(3, 10, now=2.0, queue=queue)
        assert store.get(1).tier is Tier.DRAM
        assert store.get(2).tier is Tier.DISK

    def test_demotion_writes_to_ssd_channel(self):
        store = make_store(dram_items=1)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)
        assert store.ssd.bytes_moved == 10 * KB

    def test_delta_writeback_on_respill(self):
        """A session re-spilled after growing writes only its new blocks."""
        store = make_store(dram_items=2, disk_items=20)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)  # both fit in DRAM
        store.save(3, 10, now=2.0)  # spills 1: full 10-token write
        assert store.ssd.bytes_moved == 10 * KB
        # Session 1 returns grown by 2 tokens; making room spills 2 and 3.
        store.save(1, 12, now=3.0)
        assert store.ssd.bytes_moved == 30 * KB
        # Spilling 1 again only writes the 2 tokens disk does not hold.
        store.save(4, 10, now=4.0)
        assert store.ssd.bytes_moved == 32 * KB


class TestTruncation:
    def test_truncate_decoupled_shrinks(self):
        store = make_store()
        store.save(1, 10, now=0.0, position_decoupled=True)
        assert store.truncate(1, 6)
        assert store.lookup(1, 1.0).n_tokens == 6
        assert store.stats.truncations == 1

    def test_truncate_embedded_invalidates(self):
        """The OF baseline: embedded positions make truncation fatal."""
        store = make_store()
        store.save(1, 10, now=0.0, position_decoupled=False)
        assert not store.truncate(1, 6)
        assert store.lookup(1, 1.0).status is LookupStatus.MISS
        assert store.stats.invalidated == 1

    def test_truncate_to_zero_drops(self):
        store = make_store()
        store.save(1, 10, now=0.0)
        assert not store.truncate(1, 0)
        assert 1 not in store

    def test_truncate_noop_when_bigger(self):
        store = make_store()
        store.save(1, 10, now=0.0)
        assert store.truncate(1, 15)
        assert store.get(1).n_tokens == 10

    def test_truncate_missing_returns_false(self):
        assert not make_store().truncate(9, 5)


class TestTTL:
    def test_expired_item_misses(self):
        store = make_store(ttl_seconds=100.0)
        store.save(1, 10, now=0.0)
        assert store.lookup(1, 50.0).hit
        assert store.lookup(1, 200.0).status is LookupStatus.MISS

    def test_access_refreshes_ttl(self):
        store = make_store(ttl_seconds=100.0)
        store.save(1, 10, now=0.0)
        store.lookup(1, 90.0)
        assert store.lookup(1, 150.0).hit

    def test_sweep_removes_expired(self):
        store = make_store(ttl_seconds=100.0)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=150.0)
        assert store.sweep_expired(200.0) == 1
        assert 1 not in store
        assert 2 in store

    def test_no_ttl_never_expires(self):
        store = make_store()  # ttl None
        store.save(1, 10, now=0.0)
        assert store.lookup(1, 1e9).hit
        assert store.sweep_expired(1e9) == 0


class TestPrefetch:
    def test_prefetch_promotes_disk_items(self):
        store = make_store(dram_items=2)
        for sid in range(3):
            store.save(sid, 10, now=float(sid))
        assert store.get(0).tier is Tier.DISK
        issued = store.prefetch(ListQueueView([0]), now=10.0)
        assert [sid for sid, _ in issued] == [0]
        item = store.get(0)
        assert item.tier is Tier.DRAM
        assert item.fetch_in_flight
        assert item.dram_ready_at > 10.0

    def test_complete_fetch_clears_flag(self):
        store = make_store(dram_items=2)
        for sid in range(3):
            store.save(sid, 10, now=float(sid))
        store.prefetch(ListQueueView([0]), now=10.0)
        store.complete_fetch(0)
        assert not store.get(0).fetch_in_flight

    def test_prefetch_disabled(self):
        store = make_store(dram_items=2, enable_prefetch=False)
        for sid in range(3):
            store.save(sid, 10, now=float(sid))
        assert store.prefetch(ListQueueView([0]), now=10.0) == []

    def test_prefetch_skips_dram_residents(self):
        store = make_store(dram_items=3)
        store.save(1, 10, now=0.0)
        assert store.prefetch(ListQueueView([1]), now=1.0) == []

    def test_prefetch_respects_pinned_evictions(self):
        """Prefetch must not evict a pinned session to make room."""
        store = make_store(dram_items=1)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)  # 1 spills to disk
        store.pin(2)
        issued = store.prefetch(ListQueueView([1]), now=2.0)
        assert issued == []  # no room without evicting the pinned item
        assert store.get(2).tier is Tier.DRAM


class TestWindows:
    def test_eviction_window_formula(self):
        store = make_store()
        store.save(1, 10, now=0.0)
        capacity = store.dram_tier.capacity_bytes + store.disk_tier.capacity_bytes
        assert store.eviction_window_limit() == int(capacity / store.avg_item_bytes)

    def test_nested_disk_plan_reads_the_dram_plans_window(self):
        """The window is set once, as the DRAM plan starts (five sessions
        averaging 9 KB: (20 + 25) / 9 = 5); the disk plans of its demotions
        read it unchanged, though the first one's drop of a 15 KB item
        would make it 6 and shelter session 3, sixth in the queue."""
        config = StoreConfig(
            dram_bytes=20 * KB,
            ssd_bytes=25 * KB,
            block_bytes=KB,
            dram_buffer_fraction=0.0,
        )
        store = AttentionStore(config, KB, Channel("ssd", 1e9))
        for sid, tokens in ((1, 15), (2, 5), (3, 5), (4, 10), (5, 10)):
            store.save(sid, tokens, now=float(sid))  # spills 1, 2 and 3
        assert list(store.disk_tier.lru_order()) == [1, 2, 3]
        queue = ListQueueView([10, 11, 12, 13, 2, 3])
        # Sessions 4 and 5 leave DRAM: 4's disk plan drops session 1 (no
        # waiting job), 5's drops session 3 (outside the window of 5).
        store.save(6, 20, now=6.0, queue=queue)
        assert list(store.disk_tier.lru_order()) == [2, 4, 5]
        assert 1 not in store and 3 not in store
        store.check_invariants()

    def test_avg_item_bytes_default(self):
        store = make_store()
        assert store.avg_item_bytes == 2048.0 * KB


class TestHBMCacheTier:
    def test_hbm_save_and_hit(self):
        store = make_store(hbm_cache_bytes=100 * KB)
        store.save_to_hbm_cache(1, 10, now=0.0)
        assert store.lookup(1, 1.0).status is LookupStatus.HIT_HBM

    def test_hbm_overflow_falls_to_dram(self):
        store = make_store(dram_items=4, hbm_cache_bytes=10 * KB)
        store.save_to_hbm_cache(1, 10, now=0.0)
        store.save_to_hbm_cache(2, 10, now=1.0)
        tiers = {store.get(1).tier, store.get(2).tier}
        assert Tier.HBM in tiers and Tier.DRAM in tiers

    def test_hbm_overflow_moves_the_same_item(self):
        store = make_store(dram_items=4, hbm_cache_bytes=10 * KB)
        first = store.save_to_hbm_cache(1, 10, now=0.0)
        first.corrupt = True
        first.position_decoupled = False
        store.save_to_hbm_cache(2, 10, now=1.0)
        assert store.get(1) is first
        assert first.tier is Tier.DRAM and not first.position_decoupled
        assert store.lookup(1, 2.0).status is LookupStatus.MISS_CORRUPT
        # The overflow is a move, not a save.
        assert store.stats.saves == 2
        store.check_invariants()

    def test_hbm_overflow_keeps_the_shared_reference(self):
        store = make_store(dram_items=4, hbm_cache_bytes=10 * KB)
        assert store.register_shared("h", 10, now=0.0)
        store.acquire_shared("h", 1)
        store.save_to_hbm_cache(1, 10, now=0.0)
        store.save_to_hbm_cache(2, 10, now=1.0)
        assert store.get(1).tier is Tier.DRAM
        assert store.prefix_of(1) is store._by_hash["h"]
        store.check_invariants()

    def test_hbm_only_drops_on_overflow(self):
        store = make_store(dram_items=0, disk_items=0, hbm_cache_bytes=10 * KB)
        store.save_to_hbm_cache(1, 10, now=0.0)
        store.save_to_hbm_cache(2, 10, now=1.0)
        assert len(store) == 1
        # The victim left the store, so it counts as evicted out.
        assert store.stats.evicted_out == 1

    def test_hbm_victim_larger_than_dram_evicts_nothing(self):
        """An HBM victim DRAM can never hold is dropped without evicting
        DRAM's residents: a refused placement evicts nothing (SimSan
        checks the plan)."""
        config = StoreConfig(
            hbm_cache_bytes=10 * KB,
            dram_bytes=5 * KB,
            ssd_bytes=100 * KB,
            block_bytes=KB,
            dram_buffer_fraction=0.0,
        )
        store = AttentionStore(config, KB, Channel("ssd", 1e9))
        for_simulator(Simulator()).install_store(store)
        store.save(1, 5, now=0.0)
        store.save_to_hbm_cache(2, 8, now=1.0)
        store.save_to_hbm_cache(3, 8, now=2.0)
        assert store.get(1).tier is Tier.DRAM
        assert store.get(2) is None and store.get(3).tier is Tier.HBM
        assert store.ssd.bytes_moved == 0
        assert store.stats.evicted_to_disk == 0
        assert store.stats.evicted_out == 1
        store.check_invariants()

    def test_one_save_walks_the_whole_chain(self):
        """HBM overflow -> DRAM placement -> disk spill -> disk drop, in one
        save, with SimSan checking every plan of the walk."""
        config = StoreConfig(
            hbm_cache_bytes=10 * KB,
            dram_bytes=20 * KB,
            ssd_bytes=22 * KB,
            block_bytes=KB,
            dram_buffer_fraction=0.0,
        )
        store = AttentionStore(config, KB, Channel("ssd", 1e9))
        for_simulator(Simulator()).install_store(store)
        for sid in (1, 2, 3):  # session 1 spills its 10 tokens
            store.save(sid, 10, now=float(sid))
        # Session 1 returns grown to 12 tokens, 10 of them still on disk;
        # its room in DRAM spills sessions 2 and 3, filling 20 of 22 disk
        # blocks.
        store.save(1, 12, now=4.0)
        store.save_to_hbm_cache(4, 10, now=5.0)
        assert store.ssd.bytes_moved == 30 * KB
        assert store.stats.evicted_to_disk == 3
        # Session 5 overflows HBM: session 4 moves to DRAM, whose room
        # spills session 1, whose room on disk drops session 2.
        store.save_to_hbm_cache(5, 10, now=6.0)
        tiers = {sid: store.get(sid).tier for sid in store.resident_sessions()}
        assert tiers == {5: Tier.HBM, 4: Tier.DRAM, 1: Tier.DISK, 3: Tier.DISK}
        assert store.stats.evicted_to_disk == 4
        assert store.stats.evicted_out == 1
        # The spill wrote only the 2 tokens disk did not hold yet.
        assert store.ssd.bytes_moved == 32 * KB
        assert store.get(1).written_tokens == 12
        store.check_invariants()

    def test_without_hbm_tier_delegates_to_dram(self):
        store = make_store()
        store.save_to_hbm_cache(1, 10, now=0.0)
        assert store.lookup(1, 1.0).status is LookupStatus.HIT_DRAM


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name",
        [
            EvictionPolicyName.SCHEDULER_AWARE,
            EvictionPolicyName.LRU,
            EvictionPolicyName.FIFO,
        ],
    )
    def test_known_policies(self, name):
        assert make_policy(name).name == name.value
