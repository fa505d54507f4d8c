"""Crash-offline store behaviour: wipe_volatile / restore_offline /
decommission.

A replica crash loses everything volatile (HBM + DRAM) but the SSD tier
physically survives; the store parks the disk-resident items *offline* —
invisible to lookups for the whole downtime — and re-admits them when the
replica restarts.  A session that fails over to a peer in the meantime
drops its parked copy at once (``discard_stale``), so exactly one copy
survives the restart.
"""

import pytest

from repro.config import StoreConfig
from repro.sim import Channel
from repro.store import AttentionStore, LookupStatus, Tier

KB = 1000


def make_store(dram_items=2, disk_items=8, item_tokens=10):
    item_bytes = item_tokens * KB
    config = StoreConfig(
        dram_bytes=dram_items * item_bytes,
        ssd_bytes=disk_items * item_bytes,
        block_bytes=KB,
        dram_buffer_fraction=0.0,
    )
    return AttentionStore(config, KB, Channel("ssd", 1e9))


def store_with_disk_item(store=None):
    """Three saves into a 2-item DRAM: session 1 is evicted to disk."""
    store = store if store is not None else make_store()
    store.save(1, 10, now=0.0)
    store.save(2, 10, now=1.0)
    store.save(3, 10, now=2.0)
    assert store.get(1).tier is Tier.DISK
    return store


class TestWipeVolatile:
    def test_drops_volatile_and_parks_disk(self):
        store = store_with_disk_item()
        lost, parked = store.wipe_volatile(3.0)
        assert (lost, parked) == (2, 1)
        assert store.stats.lost_items == 2
        assert store.offline_items == 1
        store.check_invariants()

    def test_store_is_empty_during_downtime(self):
        store = store_with_disk_item()
        store.wipe_volatile(3.0)
        assert len(store) == 0
        assert not store.resident_sessions()
        # The parked copy is unreachable: lookups miss, extract finds
        # nothing to migrate.
        assert store.lookup(1, 4.0).status is LookupStatus.MISS
        assert store.extract(1) is None

    def test_wipe_without_disk_items(self):
        store = make_store()
        store.save(1, 10, now=0.0)
        lost, parked = store.wipe_volatile(1.0)
        assert (lost, parked) == (1, 0)
        assert store.offline_items == 0


class TestRestoreOffline:
    def test_readmits_parked_items(self):
        store = store_with_disk_item()
        store.wipe_volatile(3.0)
        readmitted, discarded = store.restore_offline(10.0)
        assert (readmitted, discarded) == (1, 0)
        assert store.stats.restart_readmissions == 1
        assert store.offline_items == 0
        assert store.get(1).tier is Tier.DISK
        assert store.lookup(1, 11.0).status is LookupStatus.HIT_DISK
        store.check_invariants()

    def test_discard_stale_drops_parked_copy(self):
        store = store_with_disk_item()
        store.wipe_volatile(3.0)
        assert store.discard_stale(1)
        assert store.stats.restart_discards == 1
        assert store.stats.scatter_drops == 0
        readmitted, discarded = store.restore_offline(10.0)
        assert (readmitted, discarded) == (0, 0)
        assert store.stats.restart_discards == 1
        assert store.offline_items == 0
        assert len(store) == 0
        store.check_invariants()

    def test_readmitted_item_counts_ttl_from_restart(self):
        store = store_with_disk_item()
        pre_crash_access = store.get(1).last_access
        store.wipe_volatile(3.0)
        store.restore_offline(50.0)
        assert store.get(1).last_access == 50.0
        assert store.get(1).last_access > pre_crash_access

    def test_restore_is_idempotent_when_nothing_parked(self):
        store = make_store()
        store.save(1, 10, now=0.0)
        assert store.restore_offline(1.0) == (0, 0)
        assert store.lookup(1, 2.0).status is LookupStatus.HIT_DRAM


class TestDecommission:
    def test_drops_every_resident_item(self):
        store = store_with_disk_item()
        assert store.decommission() == 3
        assert len(store) == 0
        store.check_invariants()

    def test_empty_store_is_a_noop(self):
        assert make_store().decommission() == 0


class TestInvariants:
    def test_offline_items_never_alias_resident_books(self):
        store = store_with_disk_item()
        store.wipe_volatile(3.0)
        # Saving a fresh copy for a parked session is legal (the session
        # recomputed elsewhere won't happen on *this* replica, but a new
        # session reusing the id must not trip accounting).
        store.check_invariants()
        store.restore_offline(5.0)
        store.check_invariants()

    def test_double_wipe_accumulates_offline(self):
        store = store_with_disk_item()
        store.wipe_volatile(3.0)
        store_with_disk_item(store)
        store.wipe_volatile(6.0)
        assert store.offline_items == 2
        readmitted, discarded = store.restore_offline(7.0)
        # Both parked generations restore; the stale duplicate of
        # session 1 degrades to a discard instead of corrupting books.
        assert readmitted + discarded == 2
        store.check_invariants()
