"""KV-cache items: the unit of placement in AttentionStore.

One item holds *all* KV caches of a conversation session across all layers
— the paper's minimal eviction and fetching granularity, because "the KV
cache in the same conversation session is either all used or none of it is
used" (Section 3.3.2).  A shared prefix several sessions read is an item
too, keyed by a negative id and carrying its content hash and reference
count (DESIGN.md §15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Tier(str, Enum):
    """Where a KV-cache item currently resides."""

    HBM = "hbm"
    DRAM = "dram"
    DISK = "disk"


@dataclass(slots=True)
class KVCacheItem:
    """Metadata for one stored KV segment: a session's tail or a shared prefix.

    Attributes:
        session_id: the conversation session this item belongs to, or the
            negative id of a shared prefix.
        n_tokens: number of tokens whose KV is stored.
        n_bytes: total footprint.
        tier: current residency tier.
        position_decoupled: True if the KV was saved *before* positional
            encoding was applied (CachedAttention); False reproduces the OF
            baseline whose caches are invalidated by truncation.
        corrupt: set by fault injection at save time; discovered by
            checksum validation at the next lookup (``MISS_CORRUPT``).
        lost: set by fault injection at save time; the item silently
            vanished and the next lookup is a plain miss.
        last_access: the timestamp TTL expiry counts from.
        dram_ready_at: if a fetch from disk is in flight, the simulated time
            at which the DRAM copy becomes usable.
        content_hash: a shared prefix's content hash (None for a tail).
        refcount: sessions reading this shared prefix; while positive the
            item is exempt from eviction and TTL expiry.
        written_tokens: tokens of this item an earlier spill already wrote
            to disk, so the next spill writes only the rest (delta
            write-back); a replacement carries it forward.
    """

    session_id: int
    n_tokens: int
    n_bytes: int
    tier: Tier
    position_decoupled: bool = True
    corrupt: bool = False
    lost: bool = False
    last_access: float = 0.0
    dram_ready_at: float = 0.0
    fetch_in_flight: bool = field(default=False)
    content_hash: str | None = None
    refcount: int = 0
    written_tokens: int = 0

    def __post_init__(self) -> None:
        if self.n_tokens <= 0:
            raise ValueError(f"n_tokens must be positive, got {self.n_tokens}")
        if self.n_bytes <= 0:
            raise ValueError(f"n_bytes must be positive, got {self.n_bytes}")

    def touch(self, now: float) -> None:
        self.last_access = now

    def expired(self, now: float, ttl_seconds: float | None) -> bool:
        """TTL from Section 4.3.6: maximum saving time since last access.

        A ``None`` TTL never expires.
        """
        if ttl_seconds is None:
            return False
        return now - self.last_access > ttl_seconds
