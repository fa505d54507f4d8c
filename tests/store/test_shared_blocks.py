"""Shared prefix blocks: content-addressed, refcounted, copy-on-write.

Covers the cross-session KV sharing lifecycle in AttentionStore
(DESIGN.md §15): register/lookup/acquire/release, pinning while
referenced, eviction once unreferenced, copy-on-write forks on
truncation, crash-offline behaviour, and byte conservation under random
mixed private/shared workloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StoreConfig
from repro.sim import Channel
from repro.store import (
    AttentionStore,
    ListQueueView,
    LookupStatus,
    Tier,
    shared_prefix_hash,
)

KB = 1000


def make_store(dram_items=4, disk_items=16, item_tokens=10, **config_overrides):
    item_bytes = item_tokens * KB
    config = StoreConfig(
        dram_bytes=dram_items * item_bytes,
        ssd_bytes=disk_items * item_bytes,
        block_bytes=KB,
        dram_buffer_fraction=0.0,
        **config_overrides,
    )
    return AttentionStore(config, KB, Channel("ssd", 1e9))


def n_prefixes(store):
    """Shared prefixes resident in ``store`` (items keyed by negative ids)."""
    return sum(sid < 0 for sid in store.resident_sessions())


H1 = shared_prefix_hash(0, 10, "llama-13b")
H2 = shared_prefix_hash(1, 10, "llama-13b")


class TestContentHash:
    def test_deterministic_and_distinct(self):
        assert H1 == shared_prefix_hash(0, 10, "llama-13b")
        assert H1 != H2
        assert H1 != shared_prefix_hash(0, 11, "llama-13b")
        assert H1 != shared_prefix_hash(0, 10, "llama-65b")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shared_prefix_hash(-1, 10, "m")
        with pytest.raises(ValueError):
            shared_prefix_hash(0, 0, "m")


class TestRegisterLookup:
    def test_register_then_hit(self):
        store = make_store()
        assert store.register_shared(H1, 10, now=0.0)
        result = store.lookup_shared(H1, 1.0)
        assert result.status is LookupStatus.HIT_DRAM
        assert result.n_tokens == 10
        assert store.has_shared(H1)
        assert n_prefixes(store) == 1
        store.check_invariants()

    def test_register_is_idempotent(self):
        store = make_store()
        assert store.register_shared(H1, 10, now=0.0)
        assert store.register_shared(H1, 10, now=1.0)
        assert n_prefixes(store) == 1
        assert store.stats.shared_registered == 1

    def test_miss_counts(self):
        store = make_store()
        assert store.lookup_shared(H1, 0.0).status is LookupStatus.MISS
        assert store.stats.shared_misses == 1

    def test_oversized_prefix_rejected(self):
        store = make_store(dram_items=1, item_tokens=10)
        assert not store.register_shared(H1, 11, now=0.0)
        assert store.stats.shared_register_failures == 1
        store.check_invariants()

    def test_block_competes_for_dram_capacity(self):
        store = make_store(dram_items=2, disk_items=8)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)
        assert store.register_shared(H1, 10, now=2.0)
        # Admitting the block demoted a private item (capacity is real).
        tiers = {sid: store.get(sid).tier for sid in (1, 2)}
        assert Tier.DISK in tiers.values()
        store.check_invariants()


class TestRefcounts:
    def test_acquire_release_cycle(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        assert store.acquire_shared(H1, 1)
        assert store.acquire_shared(H1, 2)
        assert store.prefix_of(1) is store._by_hash[H1]
        assert store.acquire_shared(H1, 1)  # idempotent per pair
        assert store.stats.shared_acquires == 2
        assert store.release_shared(1)
        assert not store.release_shared(1)  # already released
        assert store.release_shared(2)
        assert store.prefix_of(2) is None
        store.check_invariants()

    def test_acquire_unknown_hash_fails(self):
        store = make_store()
        assert not store.acquire_shared(H1, 1)

    def test_switching_hashes_releases_previous(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.register_shared(H2, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.acquire_shared(H2, 1)
        assert store.prefix_of(1) is store._by_hash[H2]
        # H1's refcount must have dropped back to zero: filling DRAM may
        # now demote it.
        assert store.stats.shared_releases == 1
        store.check_invariants()

    def test_dedup_bytes_counts_extra_references(self):
        """Each reference past the first is one private copy saved."""
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        prefix = store._by_hash[H1]
        assert prefix.refcount == 0
        store.acquire_shared(H1, 1)
        assert prefix.refcount == 1
        store.acquire_shared(H1, 2)
        store.acquire_shared(H1, 3)
        assert (prefix.refcount - 1) * prefix.n_bytes == 2 * store.item_bytes(10)


class TestEvictionInteraction:
    def test_block_survives_donor_eviction(self):
        """Dropping the donor's private item releases its reference but
        leaves the shared block resident for the other reader."""
        store = make_store()
        store.save(1, 10, now=0.0)
        store.register_shared(H1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.pin(2)  # a reader in its first turn: no tail yet
        store.acquire_shared(H1, 2)
        store.drop(1)
        assert store.has_shared(H1)
        assert store.prefix_of(1) is None
        assert store.prefix_of(2) is store._by_hash[H1]
        result = store.lookup_shared(H1, 1.0)
        assert result.status is LookupStatus.HIT_DRAM
        store.check_invariants()

    def test_referenced_block_is_not_evictable(self):
        store = make_store(dram_items=2, disk_items=2)
        store.register_shared(H1, 10, now=0.0)
        store.pin(1)  # a reader in its first turn: no tail yet
        store.acquire_shared(H1, 1)
        # Saves that need the block's space must fail around it, never
        # demote or drop it.
        for sid in range(2, 8):
            store.save(sid, 10, now=float(sid))
        assert store.has_shared(H1)
        block_item = store.get(store._by_hash[H1].session_id)
        assert block_item.tier is Tier.DRAM
        store.check_invariants()

    def test_unreferenced_block_becomes_ordinary_victim(self):
        store = make_store(dram_items=2, disk_items=8)
        store.register_shared(H1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.release_shared(1)
        for sid in range(2, 6):
            store.save(sid, 10, now=float(sid))
        prefix_id = store._by_hash[H1].session_id
        assert store.get(prefix_id).tier is Tier.DISK
        # Still addressable: a disk hit, priced like any private item.
        result = store.lookup_shared(H1, 9.0)
        assert result.status is LookupStatus.HIT_DISK
        store.check_invariants()

    def test_referenced_block_exempt_from_ttl(self):
        store = make_store(ttl_seconds=5.0)
        store.register_shared(H1, 10, now=0.0)
        store.register_shared(H2, 10, now=0.0)
        store.pin(1)  # a reader in its first turn: no tail yet
        store.acquire_shared(H1, 1)
        store.sweep_expired(100.0)
        assert store.has_shared(H1)
        assert not store.has_shared(H2)
        # A lookup serves it past its TTL too.
        assert store.lookup_shared(H1, 200.0).status is LookupStatus.HIT_DRAM
        store.check_invariants()

    def test_expired_unreferenced_block_dropped_on_lookup(self):
        store = make_store(ttl_seconds=5.0)
        store.register_shared(H1, 10, now=0.0)
        assert store.lookup_shared(H1, 100.0).status is LookupStatus.MISS
        assert not store.has_shared(H1)
        store.check_invariants()


class TestCopyOnWrite:
    def test_truncate_forks_kept_prefix_into_private_item(self):
        store = make_store(dram_items=4)
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        # Keep 15 of the 20 total tokens: 5 prefix tokens fork over.
        assert store.truncate(1, 15)
        assert store.get(1).n_tokens == 15
        assert store.stats.cow_forks == 1
        assert store.prefix_of(1) is None  # diverged for good
        assert store.has_shared(H1)  # readers unaffected
        store.check_invariants()

    def test_truncate_within_private_suffix_still_diverges(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        assert store.truncate(1, 6)
        assert store.get(1).n_tokens == 6
        assert store.stats.cow_forks == 0
        assert store.prefix_of(1) is None
        store.check_invariants()

    def test_fork_without_dram_space_drops_item(self):
        store = make_store(dram_items=2, disk_items=0)
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        # Growing 10 -> 20 tokens needs a second item's worth of blocks;
        # DRAM holds exactly the block + the item, so the fork must fail
        # cleanly: item dropped, reference released, block intact.
        assert not store.truncate(1, 20)
        assert store.get(1) is None
        assert store.prefix_of(1) is None
        assert store.has_shared(H1)
        store.check_invariants()

    def test_fork_under_concurrent_prefetch(self):
        """COW while the private item's disk->DRAM fetch is in flight."""
        store = make_store(dram_items=3, disk_items=8)
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        # Demote the private item to disk, then free the DRAM pressure so
        # both the fetch and the fork's grow have room.
        store.save(2, 10, now=1.0)
        store.save(3, 10, now=2.0)
        assert store.get(1).tier is Tier.DISK
        store.drop(2)
        store.drop(3)
        issued = store.prefetch(ListQueueView([1]), now=10.0)
        assert [sid for sid, _ in issued] == [1]
        # The writer diverges mid-fetch: the fork grows the item in place.
        assert store.truncate(1, 15)
        assert store.get(1).n_tokens == 15
        assert store.stats.cow_forks == 1
        store.check_invariants()
        store.complete_fetch(1)
        store.check_invariants()


class TestLifecycleInteraction:
    def test_drop_releases_reference(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.drop(1)
        assert store.prefix_of(1) is None
        store.check_invariants()

    def test_drop_of_pseudo_id_unregisters_block(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.drop(store._by_hash[H1].session_id)
        assert not store.has_shared(H1)
        assert store.prefix_of(1) is None
        store.check_invariants()

    def test_extract_releases_reference_but_keeps_block(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        item = store.extract(1)
        assert item is not None
        assert store.prefix_of(1) is None
        assert store.has_shared(H1)
        store.check_invariants()

    def test_discard_stale_releases_itemless_reference(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        assert not store.discard_stale(1)  # no private item to drop
        assert store.prefix_of(1) is None
        store.check_invariants()

    def test_decommission_clears_all_sharing_state(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.acquire_shared(H1, 2)  # reference without a private item
        store.decommission()
        assert len(store) == 0
        assert n_prefixes(store) == 0
        assert store.prefix_of(1) is None
        assert store.prefix_of(2) is None
        store.check_invariants()

    def test_rejected_save_releases_a_tailless_reference(self):
        """A session holds a prefix reference only while it has a tail or
        a running turn: a rejected save that keeps the old tail keeps the
        reference, one that leaves no tail releases it."""
        store = make_store(dram_items=3)
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.pin(2)  # turn 0: the reference is taken before the save
        store.acquire_shared(H1, 2)
        # Both saves are larger than DRAM.
        assert store.save(1, 40, now=1.0) is None
        assert store.save(2, 40, now=1.0) is None
        store.unpin(2)
        store.check_invariants()
        assert store.stats.shared_releases == 1
        assert not store.release_shared(2)
        assert store.release_shared(1)

    def test_admit_migrated_adopts_unknown_hash(self):
        store = make_store()
        item = _extract_from_donor()
        store.admit_migrated(
            1, item.n_tokens, 5.0, shared_hash=H1, shared_tokens=10
        )
        assert store.has_shared(H1)
        assert store.prefix_of(1) is store._by_hash[H1]
        assert store.stats.shared_adoptions == 1
        store.check_invariants()

    def test_admit_migrated_relinks_known_hash(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        item = _extract_from_donor()
        store.admit_migrated(
            1, item.n_tokens, 5.0, shared_hash=H1, shared_tokens=10
        )
        assert store.prefix_of(1) is store._by_hash[H1]
        assert store.stats.shared_adoptions == 0
        assert n_prefixes(store) == 1
        store.check_invariants()


def _extract_from_donor():
    donor = make_store()
    donor.save(1, 10, now=0.0)
    item = donor.extract(1)
    assert item is not None
    return item


class TestOfflineWithSharing:
    def test_wipe_and_restore_recovers_disk_shared_block(self):
        """A shared block demoted to SSD survives the crash-offline
        round trip and is re-addressable by hash afterwards."""
        store = make_store(dram_items=2, disk_items=8)
        store.register_shared(H1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        store.release_shared(1)
        for sid in range(2, 6):  # push the unreferenced block to disk
            store.save(sid, 10, now=float(sid))
        prefix_id = store._by_hash[H1].session_id
        assert store.get(prefix_id).tier is Tier.DISK
        store.wipe_volatile(10.0)
        assert not store.has_shared(H1)
        store.restore_offline(20.0)
        assert store.has_shared(H1)
        result = store.lookup_shared(H1, 21.0)
        assert result.status is LookupStatus.HIT_DISK
        store.check_invariants()

    def test_wipe_loses_dram_only_block(self):
        store = make_store()
        store.register_shared(H1, 10, now=0.0)
        store.wipe_volatile(1.0)
        store.restore_offline(5.0)
        assert not store.has_shared(H1)
        store.check_invariants()

    def test_restored_private_item_relinks_to_restored_block(self):
        """A disk-resident private suffix whose shared block also
        survived on disk comes back still referencing it."""
        store = make_store(dram_items=2, disk_items=12)
        store.register_shared(H1, 10, now=0.0)
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        # Demote both the block and the suffix: release the pin, then
        # flood DRAM (the suffix's reference is *kept* — only the pin
        # tracks refcounts, and drops release refs — so re-acquire).
        store.release_shared(1)
        store.acquire_shared(H1, 1)
        for sid in range(2, 6):
            store.save(sid, 10, now=float(sid))
        # Block is pinned in DRAM while referenced; release so it spills.
        store.release_shared(1)
        store.acquire_shared(H1, 1)
        for sid in range(6, 10):
            store.save(sid, 10, now=float(sid))
        if store.get(store._by_hash[H1].session_id).tier is not Tier.DISK:
            store.release_shared(1)
            for sid in range(10, 14):
                store.save(sid, 10, now=float(sid))
            store.acquire_shared(H1, 1)
        assert store.get(1).tier is Tier.DISK
        assert store.get(store._by_hash[H1].session_id).tier is Tier.DISK
        store.wipe_volatile(20.0)
        store.restore_offline(30.0)
        assert store.has_shared(H1)
        assert store.prefix_of(1) is store._by_hash[H1]
        store.check_invariants()

    def test_orphaned_suffix_discarded_when_block_lost(self):
        """A restored private suffix whose shared prefix block did not
        survive is useless (prefix-first readability) and is discarded."""
        store = make_store(dram_items=3, disk_items=8)
        store.register_shared(H1, 10, now=0.0)  # stays in DRAM: lost
        store.save(1, 10, now=0.0)
        store.acquire_shared(H1, 1)
        for sid in range(2, 6):  # demote the private suffix only
            store.save(sid, 10, now=float(sid))
        assert store.get(1).tier is Tier.DISK
        assert store.get(store._by_hash[H1].session_id).tier is Tier.DRAM
        store.wipe_volatile(10.0)
        store.restore_offline(20.0)
        assert not store.has_shared(H1)
        assert store.get(1) is None
        assert store.stats.shared_orphan_discards == 1
        store.check_invariants()


shared_op = st.one_of(
    st.tuples(st.just("save"), st.integers(0, 9), st.integers(1, 12)),
    st.tuples(st.just("register"), st.integers(0, 2), st.integers(1, 10)),
    st.tuples(st.just("acquire"), st.integers(0, 9), st.integers(0, 2)),
    st.tuples(st.just("release"), st.integers(0, 9), st.just(0)),
    st.tuples(st.just("lookup_shared"), st.just(0), st.integers(0, 2)),
    st.tuples(st.just("truncate"), st.integers(0, 9), st.integers(0, 15)),
    st.tuples(st.just("drop"), st.integers(0, 9), st.just(0)),
    st.tuples(st.just("wipe_restore"), st.just(0), st.just(0)),
)


class TestSharingProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(shared_op, min_size=1, max_size=50))
    def test_random_shared_ops_conserve_bytes(self, ops):
        """Byte conservation with sharing: after every operation the
        store's own invariant sweep must hold — tier accounting matches
        allocators, every prefix is a resident indexed item, refcounts
        equal live references."""
        store = make_store(dram_items=3, disk_items=8)
        hashes = [H1, H2, shared_prefix_hash(2, 10, "llama-13b")]
        now = 0.0
        for op, sid, arg in ops:
            now += 1.0
            if op == "save":
                store.save(sid, arg, now=now)
            elif op == "register":
                store.register_shared(hashes[sid % 3], arg, now=now)
            elif op == "acquire":
                # A session reads a prefix only while it has a tail; the
                # other case, a running turn, is not modelled here.
                if store.get(sid) is not None:
                    store.acquire_shared(hashes[arg], sid)
            elif op == "release":
                store.release_shared(sid)
            elif op == "lookup_shared":
                store.lookup_shared(hashes[arg], now)
            elif op == "truncate":
                store.truncate(sid, arg)
            elif op == "drop":
                store.drop(sid)
            elif op == "wipe_restore":
                store.wipe_volatile(now)
                store.check_invariants()
                store.restore_offline(now)
            store.check_invariants()
