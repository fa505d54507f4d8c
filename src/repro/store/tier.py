"""A storage tier: capacity + block pool + resident-item tracking.

Tiers maintain both FIFO (arrival into the tier) and LRU (last access)
orderings incrementally, so eviction policies can pick victims in O(1)
instead of sorting the resident set on every eviction — essential when the
disk tier holds thousands of sessions.  A tier can also log the session ids
it admits, removes or resizes into a shared list (``changes``), which is
how the store's incremental prefetch planner learns of tier movement.
"""

from __future__ import annotations

from typing import Iterator, KeysView, Mapping

from .block import BlockAllocator
from .item import KVCacheItem, Tier


class StorageTier:
    """One level of the AttentionStore hierarchy (HBM, DRAM or disk)."""

    def __init__(
        self,
        tier: Tier,
        capacity_bytes: int,
        block_bytes: int,
        changes: list[int] | None = None,
    ) -> None:
        self.tier = tier
        # Appends to the change log, or None when nothing reads one.
        self._log = None if changes is None else changes.append
        self.allocator = BlockAllocator(capacity_bytes, block_bytes)
        # A block pool's capacity is fixed for its lifetime, so the
        # rounded-to-blocks capacity is snapshotted here: eviction and
        # prefetch budgeting read it on every plan, and a plain attribute
        # beats the two-property chain into the allocator.
        self.capacity_bytes: int = self.allocator.capacity_bytes
        # Python dicts preserve insertion order; we maintain one in arrival
        # order (FIFO) and one in access order (LRU, oldest first).
        self._fifo: dict[int, KVCacheItem] = {}
        self._lru: dict[int, KVCacheItem] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, session_id: int) -> bool:
        return session_id in self._fifo

    def __len__(self) -> int:
        return len(self._fifo)

    def get(self, session_id: int) -> KVCacheItem | None:
        return self._fifo.get(session_id)

    def session_ids(self) -> KeysView[int]:
        """Live view of resident session ids (O(1) membership tests)."""
        return self._fifo.keys()

    def iter_fifo(self) -> Iterator[KVCacheItem]:
        """Resident items, earliest tier arrival first."""
        return iter(self._fifo.values())

    def iter_lru(self) -> Iterator[KVCacheItem]:
        """Resident items, least recently accessed first."""
        return iter(self._lru.values())

    def lru_order(self) -> Mapping[int, KVCacheItem]:
        """Live read-only map of session id to resident item, least
        recently accessed first (iterating it yields the ids)."""
        return self._lru

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_bytes

    def can_fit(self, n_bytes: int) -> bool:
        return self.allocator.can_allocate(n_bytes)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def admit(self, item: KVCacheItem) -> None:
        """Place ``item`` in this tier, allocating blocks for it.

        Raises:
            OutOfBlocksError: if the tier lacks space (caller must evict).
            ValueError: if the session is already resident here.
        """
        if item.session_id in self._fifo:
            raise ValueError(
                f"session {item.session_id} already resident in {self.tier.value}"
            )
        item.allocation = self.allocator.allocate(item.n_bytes)
        item.tier = self.tier
        self._fifo[item.session_id] = item
        self._lru[item.session_id] = item
        if self._log is not None:
            self._log(item.session_id)

    def remove(self, session_id: int) -> KVCacheItem:
        """Remove a resident item and free its blocks.

        Raises:
            KeyError: if the session is not resident in this tier.
        """
        item = self._fifo.pop(session_id)
        del self._lru[session_id]
        self.allocator.free(item.allocation)
        if self._log is not None:
            self._log(session_id)
        return item

    def touch(self, session_id: int) -> None:
        """Move a resident item to the most-recently-used position."""
        item = self._lru.pop(session_id, None)
        if item is not None:
            self._lru[session_id] = item

    def resize(self, session_id: int, n_tokens: int, n_bytes: int) -> None:
        """Shrink a resident item in place (KV truncation)."""
        item = self._fifo[session_id]
        item.allocation = self.allocator.resize(item.allocation, n_bytes)
        item.n_tokens = n_tokens
        item.n_bytes = n_bytes
        if self._log is not None:
            self._log(session_id)
