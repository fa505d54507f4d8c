"""Block accounting of a storage tier (Section 4.1: host memory and disks
are managed in blocks).

A :class:`StorageTier` is its own block allocator: it counts free blocks,
and a resident item of ``n`` bytes holds ``ceil(n / block_bytes)`` of them.
"""

import pytest
from hypothesis import given, strategies as st

from repro.store import KVCacheItem, OutOfBlocksError, StorageTier, Tier


def item(session_id, n_bytes):
    return KVCacheItem(
        session_id=session_id, n_tokens=1, n_bytes=n_bytes, tier=Tier.DRAM
    )


def tier(capacity_bytes, block_bytes):
    return StorageTier(Tier.DRAM, capacity_bytes, block_bytes)


def state(t):
    return (t.free_blocks, t.used_bytes, t.free_bytes, list(t.session_ids()))


class TestBlockAllocator:
    def test_capacity_rounds_down_to_blocks(self):
        t = tier(capacity_bytes=100, block_bytes=30)
        assert t.total_blocks == 3
        assert t.capacity_bytes == 90
        assert t.free_bytes == 90

    def test_blocks_needed_ceils(self):
        for n_bytes, blocks in ((1, 1), (10, 1), (11, 2), (25, 3)):
            t = tier(1000, 10)
            t.admit(item(1, n_bytes))
            assert t.total_blocks - t.free_blocks == blocks
            assert t.used_bytes == blocks * 10

    def test_allocate_and_free(self):
        t = tier(100, 10)
        t.admit(item(1, 25))
        assert t.free_blocks == 7
        t.remove(1)
        assert t.free_blocks == 10

    def test_out_of_blocks(self):
        t = tier(30, 10)
        t.admit(item(1, 30))
        before = state(t)
        with pytest.raises(OutOfBlocksError):
            t.admit(item(2, 1))
        assert state(t) == before
        assert 2 not in t

    def test_double_free_rejected(self):
        t = tier(100, 10)
        t.admit(item(1, 10))
        t.remove(1)
        with pytest.raises(KeyError):
            t.remove(1)
        assert t.free_blocks == 10

    def test_can_allocate(self):
        t = tier(30, 10)
        assert t.can_fit(30)
        assert not t.can_fit(31)
        t.admit(item(1, 11))
        assert t.can_fit(10)
        assert not t.can_fit(11)

    def test_resize_shrink(self):
        t = tier(100, 10)
        t.admit(item(1, 50))
        t.resize(1, 1, 20)
        assert t.free_blocks == 8
        assert t.get(1).n_bytes == 20

    def test_resize_grow_fails_restores_original(self):
        t = tier(100, 10)
        t.admit(item(1, 60))
        t.admit(item(2, 40))
        before = state(t)
        with pytest.raises(OutOfBlocksError):
            t.resize(1, 2, 70)
        # The item keeps its size and blocks; nothing else moved.
        assert state(t) == before
        assert (t.get(1).n_tokens, t.get(1).n_bytes) == (1, 60)
        t.remove(1)
        assert t.free_blocks == 6

    def test_zero_capacity(self):
        t = tier(0, 10)
        assert t.total_blocks == 0
        assert not t.can_fit(1)
        assert t.can_fit(0)
        with pytest.raises(OutOfBlocksError):
            t.admit(item(1, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            tier(-1, 10)
        with pytest.raises(ValueError):
            tier(100, 0)
        with pytest.raises(ValueError):
            tier(100, -10)

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40)
    )
    def test_alloc_free_conservation(self, sizes):
        """Property: free + Σ ceil(bytes/block) = total after every step,
        and removing everything restores the full pool."""
        t = tier(10_000, 16)
        live = []
        for sid, size in enumerate(sizes):
            try:
                t.admit(item(sid, size))
                live.append(sid)
            except OutOfBlocksError:
                if live:
                    t.remove(live.pop())
            used = sum(-(-t.get(s).n_bytes // 16) for s in live)
            assert t.free_blocks + used == t.total_blocks
        for sid in live:
            t.remove(sid)
        assert t.free_blocks == t.total_blocks

    @given(st.integers(min_value=1, max_value=10_000))
    def test_allocation_covers_request(self, size):
        t = tier(100_000, 64)
        t.admit(item(1, size))
        assert t.used_bytes >= size
        assert t.used_bytes - size < 64
