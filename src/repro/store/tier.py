"""A storage tier: capacity in blocks + resident-item tracking.

Section 4.1: "The host memory and disks are managed in the form of blocks
to improve storage utilization, similar to [vLLM]."  A tier's capacity is
``capacity_bytes // block_bytes`` equal-sized blocks, and a resident item
of ``n`` bytes holds ``ceil(n / block_bytes)`` of them.  Items are whole
sessions placed one per tier, so the tier only counts free blocks; there
is no per-allocation record.

Tiers maintain both FIFO (arrival into the tier) and LRU (last access)
orderings incrementally, so eviction policies can pick victims in O(1)
instead of sorting the resident set on every eviction — essential when the
disk tier holds thousands of sessions.  A tier can also log the session ids
it admits, removes or resizes into a shared list (``changes``), which is
how the store's incremental prefetch planner learns of tier movement.
Given the store's pin set (``pinned``, the sessions of running jobs), a
tier keeps :attr:`StorageTier.pinned_bytes`, the bytes those sessions hold
in it, current on every admit, remove and resize: the §3.3.1 prefetch
budget reads it instead of recounting the pinned sessions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Iterator, KeysView, Mapping

from .item import KVCacheItem, Tier

if TYPE_CHECKING:
    from .policy import EvictionPolicy


class OutOfBlocksError(Exception):
    """Raised when a tier lacks the free blocks a request needs."""


class StorageTier:
    """One level of the AttentionStore hierarchy (HBM, DRAM or disk).  The
    attributes ``below`` to ``headroom_bytes`` are its link in the store's
    tier chain, HBM -> DRAM -> disk -> out, walked by ``AttentionStore._place``."""

    #: The tier this tier's eviction victims enter.  None marks the last
    #: tier, the disk: its victims leave the store, its plans are applied as
    #: taken (the exemption read live: a drop can release a reference) where
    #: other tiers list theirs first, and entering it is the SSD spill.
    below: StorageTier | None = None
    #: Chooses this tier's eviction victims.
    policy: EvictionPolicy
    #: Whether pinned sessions and referenced shared prefixes are exempt.
    exempts_held = True
    #: Bytes kept free on top of an item placed here.
    headroom_bytes = 0

    def __init__(
        self,
        tier: Tier,
        capacity_bytes: int,
        block_bytes: int,
        changes: list[int] | None = None,
        pinned: AbstractSet[int] = frozenset(),
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        self.tier = tier
        # Appends to the change log, or None when nothing reads one.
        self._log = None if changes is None else changes.append
        self.block_bytes = block_bytes
        self.total_blocks = capacity_bytes // block_bytes
        self.free_blocks = self.total_blocks
        #: Capacity rounded down to whole blocks.
        self.capacity_bytes: int = self.total_blocks * block_bytes
        #: Bytes held here by the sessions in ``pinned`` (a live view of
        #: the owner's pin set; the owner adjusts this on pin and unpin).
        self.pinned = pinned
        self.pinned_bytes = 0
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
        return (self.total_blocks - self.free_blocks) * self.block_bytes

    @property
    def free_bytes(self) -> int:
        return self.free_blocks * self.block_bytes

    def can_fit(self, n_bytes: int) -> bool:
        return -(-n_bytes // self.block_bytes) <= self.free_blocks

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def admit(self, item: KVCacheItem) -> None:
        """Place ``item`` in this tier, taking blocks for it.

        Raises:
            OutOfBlocksError: if the tier lacks space (caller must evict);
                nothing changes.
            ValueError: if the session is already resident here.
        """
        session_id = item.session_id
        if session_id in self._fifo:
            raise ValueError(
                f"session {session_id} already resident in {self.tier.value}"
            )
        need = -(-item.n_bytes // self.block_bytes)
        if need > self.free_blocks:
            raise OutOfBlocksError(
                f"need {need} blocks, only {self.free_blocks} free"
            )
        self.free_blocks -= need
        if session_id in self.pinned:
            self.pinned_bytes += item.n_bytes
        item.tier = self.tier
        self._fifo[session_id] = item
        self._lru[session_id] = item
        if self._log is not None:
            self._log(session_id)

    def remove(self, session_id: int) -> KVCacheItem:
        """Remove a resident item and free its blocks.

        Raises:
            KeyError: if the session is not resident in this tier.
        """
        item = self._fifo.pop(session_id)
        del self._lru[session_id]
        self.free_blocks += -(-item.n_bytes // self.block_bytes)
        if session_id in self.pinned:
            self.pinned_bytes -= item.n_bytes
        if self._log is not None:
            self._log(session_id)
        return item

    def touch(self, session_id: int) -> None:
        """Move a resident item to the most-recently-used position."""
        item = self._lru.pop(session_id, None)
        if item is not None:
            self._lru[session_id] = item

    def resize(self, session_id: int, n_tokens: int, n_bytes: int) -> None:
        """Shrink or grow a resident item in place (KV truncation, COW fork).

        Raises:
            OutOfBlocksError: if a grow lacks free blocks; the item keeps
                its old size.
        """
        item = self._fifo[session_id]
        block = self.block_bytes
        grow = -(-n_bytes // block) - -(-item.n_bytes // block)
        if grow > self.free_blocks:
            raise OutOfBlocksError(
                f"need {grow} more blocks, only {self.free_blocks} free"
            )
        self.free_blocks -= grow
        if session_id in self.pinned:
            self.pinned_bytes += n_bytes - item.n_bytes
        item.n_tokens = n_tokens
        item.n_bytes = n_bytes
        if self._log is not None:
            self._log(session_id)
