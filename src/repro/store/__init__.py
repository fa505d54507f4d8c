"""AttentionStore: hierarchical KV caching for multi-turn conversations."""

from .attention_store import (
    AttentionStore,
    LookupResult,
    LookupStatus,
    StoreStats,
    make_policy,
)
from .item import KVCacheItem, Tier
from .policy import (
    EmptyQueueView,
    EvictionPolicy,
    FIFOPolicy,
    ListQueueView,
    LRUPolicy,
    QueueView,
    SchedulerAwarePolicy,
)
from .prefetch import PrefetchDecision, plan_prefetches
from .sharing import shared_prefix_hash
from .tier import OutOfBlocksError, StorageTier

__all__ = [
    "AttentionStore",
    "EmptyQueueView",
    "EvictionPolicy",
    "FIFOPolicy",
    "KVCacheItem",
    "LRUPolicy",
    "ListQueueView",
    "LookupResult",
    "LookupStatus",
    "OutOfBlocksError",
    "PrefetchDecision",
    "QueueView",
    "SchedulerAwarePolicy",
    "StorageTier",
    "StoreStats",
    "Tier",
    "make_policy",
    "plan_prefetches",
    "shared_prefix_hash",
]
