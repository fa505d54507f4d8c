"""Property-based tests of AttentionStore invariants.

A randomly generated sequence of store operations must never violate the
core accounting invariants: every item is resident in exactly the tier its
metadata claims, tier byte accounting matches the block allocators, and
capacities are never exceeded.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import EvictionPolicyName, StoreConfig
from repro.store import AttentionStore, ListQueueView, Tier

KB = 1000


def make_store(policy=EvictionPolicyName.SCHEDULER_AWARE, dram_items=3, disk_items=8):
    config = StoreConfig(
        dram_bytes=dram_items * 10 * KB,
        ssd_bytes=disk_items * 10 * KB,
        block_bytes=KB,
        policy=policy,
        dram_buffer_fraction=0.0,
    )
    return AttentionStore(config, kv_bytes_per_token=KB)


def check_invariants(store: AttentionStore) -> None:
    # 1. Item registry matches tier residency exactly.
    resident = set()
    for tier in (store.hbm_tier, store.dram_tier, store.disk_tier):
        for item in tier.iter_fifo():
            assert item.tier is tier.tier
            assert item.session_id not in resident
            resident.add(item.session_id)
    assert resident == {i.session_id for i in map(store.get, resident)}
    assert len(store) == len(resident)
    # 2. Capacity respected.
    for tier in (store.hbm_tier, store.dram_tier, store.disk_tier):
        assert 0 <= tier.used_bytes <= tier.capacity_bytes
    # 3. Total byte accounting.
    expected = sum(
        item.n_bytes
        for tier in (store.hbm_tier, store.dram_tier, store.disk_tier)
        for item in tier.iter_fifo()
    )
    assert store.total_item_bytes == expected


operation = st.one_of(
    st.tuples(st.just("save"), st.integers(0, 15), st.integers(1, 12)),
    st.tuples(st.just("lookup"), st.integers(0, 15), st.just(0)),
    st.tuples(st.just("drop"), st.integers(0, 15), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(0, 15), st.integers(0, 12)),
    st.tuples(st.just("prefetch"), st.integers(0, 15), st.just(0)),
    st.tuples(st.just("sweep"), st.just(0), st.just(0)),
)


class TestStoreInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(operation, min_size=1, max_size=60),
        st.sampled_from(list(EvictionPolicyName)),
    )
    def test_random_operations_preserve_invariants(self, ops, policy):
        store = make_store(policy=policy)
        now = 0.0
        for op, sid, arg in ops:
            now += 1.0
            if op == "save":
                store.save(sid, arg, now=now)
            elif op == "lookup":
                store.lookup(sid, now)
            elif op == "drop":
                store.drop(sid)
            elif op == "truncate":
                store.truncate(sid, arg)
            elif op == "prefetch":
                issued = store.prefetch(ListQueueView([sid]), now)
                for fetched_sid, _ in issued:
                    store.complete_fetch(fetched_sid)
            elif op == "sweep":
                store.sweep_expired(now)
            check_invariants(store)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=80))
    def test_saves_never_exceed_capacity(self, sids):
        store = make_store(dram_items=2, disk_items=4)
        for i, sid in enumerate(sids):
            store.save(sid, 8, now=float(i))
            check_invariants(store)
        # The store holds at most what fits.
        assert store.dram_tier.used_bytes <= store.dram_tier.capacity_bytes
        assert store.disk_tier.used_bytes <= store.disk_tier.capacity_bytes

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 8), min_size=2, max_size=30),
        st.integers(1, 10),
    )
    def test_queue_protection_is_consistent(self, sids, queued):
        """A queued session's item survives saves while any un-queued
        eviction candidate exists."""
        store = make_store(dram_items=2, disk_items=20)
        queue = ListQueueView([queued])
        store.save(queued, 10, now=0.0, queue=queue)
        for i, sid in enumerate(sids):
            if sid == queued:
                continue
            store.save(sid, 10, now=float(i + 1), queue=queue)
            check_invariants(store)
        # The queued item must still exist somewhere (never evicted out
        # while un-queued items were available).
        assert queued in store
