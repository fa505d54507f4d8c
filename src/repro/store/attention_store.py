"""AttentionStore: the hierarchical KV caching system of CachedAttention.

Responsibilities (Section 3 of the paper):

* place each inactive session's KV cache in an (optional) HBM cache tier,
  host DRAM, or disk, managed in fixed-size blocks;
* serve lookups, reporting which tier a session's cache resides in;
* prefetch upcoming sessions' caches from disk to DRAM using scheduler
  hints (Section 3.3.1);
* evict along one tier chain, HBM -> DRAM -> disk -> out-of-system, with
  a pluggable policy (scheduler-aware by default; LRU/FIFO baselines,
  Section 3.3.2): each tier declares its link once (see
  :class:`~repro.store.tier.StorageTier`), and every eviction is one plan
  of :func:`~repro.store.policy.plan_evictions`, applied by the one loop
  :meth:`AttentionStore._place`;
* expire items whose TTL since last access has lapsed (Section 4.3.6);
* truncate stored caches on context-window overflow — only possible when
  the KV was saved with positional encodings decoupled (Section 3.4);
* degrade gracefully under injected faults: items are validated at lookup
  (corrupt caches are never served — ``MISS_CORRUPT`` triggers a recompute
  fallback upstream), every KV transfer — the engine's PCIe loads, saves
  and disk loads as well as the store's spills and prefetches — runs
  through the one retry loop :meth:`AttentionStore.transfer` (capped
  exponential backoff), and a circuit breaker fed by SSD faults bypasses
  a sick SSD entirely (DRAM-only operation with recovery probes);
* deduplicate *shared prefixes* across sessions (system prompts, few-shot
  templates) with one segment model: a session's tail and the prefix it
  reads are items alike, placed, looked up and released by the same
  steps; a prefix is keyed by a negative id, indexed by content hash,
  exempt from eviction and TTL while referenced, and forked copy-on-write
  into the tail when a session's history diverges (see
  :mod:`repro.store.sharing` and DESIGN.md §15).

Transfer *timing* is modelled by the channels: the SSD channel passed in,
and the engine's PCIe channels, which it hands to :meth:`transfer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, AbstractSet, Callable, KeysView

from ..config import EvictionPolicyName, StoreConfig
from ..faults import FaultInjector, TierHealth
from ..sim.channel import Channel, ChannelPair, FaultyTransfer
from .item import KVCacheItem, Tier
from .policy import (
    EmptyQueueView,
    EvictionPolicy,
    FIFOPolicy,
    LRUPolicy,
    QueueView,
    SchedulerAwarePolicy,
    plan_evictions,
    victims_to_apply,
)
from .prefetch import PrefetchPlanner
from .tier import OutOfBlocksError, StorageTier

if TYPE_CHECKING:
    from ..obs.spans import SpanTracer


class LookupStatus(str, Enum):
    """Where a lookup found (or failed to find) a session's KV cache."""

    HIT_HBM = "hit-hbm"
    HIT_DRAM = "hit-dram"
    HIT_DISK = "hit-disk"
    MISS = "miss"
    #: The item was present but failed checksum validation (injected
    #: corruption); it is dropped and must be recomputed, never served.
    MISS_CORRUPT = "miss-corrupt"


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of a cache lookup for a resuming session."""

    status: LookupStatus
    n_tokens: int = 0
    n_bytes: int = 0
    ready_at: float = 0.0

    @property
    def hit(self) -> bool:
        return self.status not in (LookupStatus.MISS, LookupStatus.MISS_CORRUPT)


@dataclass(slots=True)
class StoreStats:
    """Operational counters (evictions, expiries, prefetches, faults)."""

    evicted_to_disk: int = 0
    evicted_out: int = 0
    expired: int = 0
    prefetches: int = 0
    prefetched_bytes: int = 0
    invalidated: int = 0
    truncations: int = 0
    saves: int = 0
    save_rejections: int = 0
    # Fault/degradation counters (all zero unless fault injection is on):
    transfer_faults: int = 0
    transfer_retries: int = 0
    corrupt_misses: int = 0
    lost_items: int = 0
    failed_saves: int = 0
    fallback_recomputes: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    # Cluster-serving counters (zero outside multi-instance runs):
    migrations_in: int = 0
    migrations_out: int = 0
    migrated_bytes_out: int = 0
    scatter_drops: int = 0
    # Replica-lifecycle counters (zero unless crashes are scheduled):
    restart_readmissions: int = 0
    restart_discards: int = 0
    # Shared-prefix counters (zero unless the workload carries prefixes):
    shared_registered: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    shared_acquires: int = 0
    shared_releases: int = 0
    cow_forks: int = 0
    shared_register_failures: int = 0
    shared_orphan_discards: int = 0
    shared_adoptions: int = 0


def make_policy(name: EvictionPolicyName) -> EvictionPolicy:
    """Instantiate an eviction policy by configuration name (the store sets
    the scheduler-aware window limit when a listed eviction plan starts)."""
    if name is EvictionPolicyName.SCHEDULER_AWARE:
        return SchedulerAwarePolicy()
    if name is EvictionPolicyName.LRU:
        return LRUPolicy()
    if name is EvictionPolicyName.FIFO:
        return FIFOPolicy()
    raise ValueError(f"unknown eviction policy {name!r}")


_EMPTY_QUEUE = EmptyQueueView()

#: Lookup status by residency tier (module-level: the lookup hot path must
#: not rebuild this mapping on every call).
_STATUS_BY_TIER = {
    Tier.HBM: LookupStatus.HIT_HBM,
    Tier.DRAM: LookupStatus.HIT_DRAM,
    Tier.DISK: LookupStatus.HIT_DISK,
}
_MISS = LookupResult(LookupStatus.MISS)
_MISS_CORRUPT = LookupResult(LookupStatus.MISS_CORRUPT)


class AttentionStore:
    """Hierarchical KV cache for multi-turn conversation sessions."""

    def __init__(
        self,
        config: StoreConfig,
        kv_bytes_per_token: int,
        ssd_channel: Channel | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if kv_bytes_per_token <= 0:
            raise ValueError(
                f"kv_bytes_per_token must be positive, got {kv_bytes_per_token}"
            )
        self.config = config
        self.kv_bytes_per_token = kv_bytes_per_token
        self.ssd = ssd_channel or Channel("ssd", bandwidth=4e9)
        self.faults = fault_injector
        self.ssd_health: TierHealth | None = None
        if fault_injector is not None:
            fc = fault_injector.config
            self.ssd_health = TierHealth(fc.breaker_threshold, fc.breaker_cooldown)
            if self.ssd.fault_hook is None:
                self.ssd.fault_hook = fault_injector
        self._items: dict[int, KVCacheItem] = {}
        # The incremental §3.3.1 planner learns of tier movement from a
        # change log: the tiers log every admit, remove and resize (only
        # when prefetching is on; each prefetch() call drains the log, as
        # the engine makes one per queue push and pop).  A fetch is only
        # ever in flight into DRAM, so complete_fetch() changes nothing the
        # planner reads.
        changes: list[int] = []
        self._plan_changes = changes if config.enable_prefetch else None
        # Sessions of running jobs (the engine pins a job's session while
        # it prefills and decodes): exempt from eviction, and their DRAM
        # bytes are not available to the §3.3.1 prefetch window.  The DRAM
        # tier keeps those bytes current as ``dram_tier.pinned_bytes``.
        self._pinned: set[int] = set()
        log, block = self._plan_changes, config.block_bytes
        self.hbm_tier = StorageTier(Tier.HBM, config.hbm_cache_bytes, block, log)
        self.dram_tier = StorageTier(
            Tier.DRAM, config.dram_bytes, block, log, self._pinned
        )
        self.disk_tier = StorageTier(Tier.DISK, config.ssd_bytes, block, log)
        # The tier chain, HBM -> DRAM -> disk -> out, each link declared
        # once (see StorageTier).  HBM overflows its least-recently-used
        # items and exempts none: a victim moves to DRAM as it is.
        self.policy = policy = make_policy(config.policy)
        hbm, dram, disk = self.hbm_tier, self.dram_tier, self.disk_tier
        hbm.below, hbm.policy, hbm.exempts_held = dram, LRUPolicy(), False
        # DRAM lists and sizes each plan and keeps its buffer free.  A DRAM
        # plan sets the scheduler-aware window when it starts; the disk
        # plans it nests read that window unchanged.
        dram.below, dram.policy = disk, policy
        dram.headroom_bytes = int(config.dram_buffer_fraction * dram.capacity_bytes)
        # The disk, the last tier, applies each plan as taken (DESIGN §8),
        # so an item larger than a disk of nonzero capacity still evicts
        # the disk's victims, and a disk of no capacity lists no plan and
        # is never entered.  Entering it is the SSD spill.
        disk.policy = policy
        self.prefetch_planner = PrefetchPlanner(
            self._items, changes, self.dram_tier, config.prefetch_capacity_fraction
        )
        #: Optional cross-check run on every plan before it is issued
        #: (installed by SimSan): ``(queue, fetch_ids)``.
        self.plan_check: Callable[[QueueView, list[int]], None] | None = None
        #: Optional cross-checks of every applied eviction plan (installed
        #: by SimSan): each victim as it is taken, and, once the plan and
        #: its admission are done, ``(tier, free blocks before, item blocks,
        #: wanted blocks, listed victims, applied victims, admitted)``.
        self.victim_check: Callable[[StorageTier, KVCacheItem], None] | None = None
        self.placement_check: (
            Callable[
                [StorageTier, int, int, int, list[KVCacheItem], list[KVCacheItem], bool],
                None,
            ]
            | None
        ) = None
        self._tiers = {
            Tier.HBM: self.hbm_tier,
            Tier.DRAM: self.dram_tier,
            Tier.DISK: self.disk_tier,
        }
        self.stats = StoreStats()
        self._total_item_bytes = 0
        # SSD items parked by wipe_volatile() while the replica is down:
        # (item, hash of the prefix a tail read or None) pairs, off the
        # store's books until restore_offline() re-admits them.
        self._offline: list[tuple[KVCacheItem, str | None]] = []
        # Shared prefixes are items keyed by negative ids, handed out in
        # registration order; each carries its content hash and refcount.
        # ``_by_hash`` is the content index and ``_prefix_of`` maps a
        # session to the prefix item it reads.  Both stay empty unless the
        # workload carries shared prefixes, so every hot-path guard below
        # is a falsy check.
        self._by_hash: dict[str, KVCacheItem] = {}
        self._prefix_of: dict[int, KVCacheItem] = {}
        self._next_prefix_id = -1
        # Optional span tracer (repro.obs): installed from outside via
        # SpanTracer.attach_engine; pure observation of tier movement.
        self.tracer: "SpanTracer | None" = None
        self.trace_track: str = "store"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, session_id: int) -> bool:
        return session_id in self._items

    def __len__(self) -> int:
        return len(self._items)

    def resident_sessions(self) -> KeysView[int]:
        """Session ids with a cache resident in any tier (insertion order,
        so iteration is deterministic).  Negative ids key shared prefixes,
        not conversations."""
        return self._items.keys()

    def get(self, session_id: int) -> KVCacheItem | None:
        return self._items.get(session_id)

    @property
    def pinned_sessions(self) -> AbstractSet[int]:
        """Live view of the pinned (running) sessions."""
        return self._pinned

    def pin(self, session_id: int) -> None:
        """Exempt a running job's session from eviction until
        :meth:`unpin`; its DRAM bytes leave the prefetch budget."""
        if session_id not in self._pinned:
            self._pinned.add(session_id)
            item = self.dram_tier.get(session_id)
            if item is not None:
                self.dram_tier.pinned_bytes += item.n_bytes

    def unpin(self, session_id: int) -> None:
        """Undo :meth:`pin` (a no-op for a session that is not pinned)."""
        if session_id in self._pinned:
            self._pinned.remove(session_id)
            item = self.dram_tier.get(session_id)
            if item is not None:
                self.dram_tier.pinned_bytes -= item.n_bytes

    def item_bytes(self, n_tokens: int) -> int:
        return n_tokens * self.kv_bytes_per_token

    @property
    def total_item_bytes(self) -> int:
        return self._total_item_bytes

    @property
    def avg_item_bytes(self) -> float:
        """Running average item size, ``S_kv`` in the paper's formulas."""
        if not self._items:
            return 2048.0 * self.kv_bytes_per_token
        return self._total_item_bytes / len(self._items)

    def eviction_window_limit(self) -> int:
        """Maximum look-ahead eviction window length (Section 3.3.2):
        ``(C_mem + C_disk) / S_kv``."""
        capacity = self.dram_tier.capacity_bytes + self.disk_tier.capacity_bytes
        return max(1, int(capacity / max(self.avg_item_bytes, 1.0)))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, session_id: int, now: float) -> LookupResult:
        """Check whether a resuming session's KV cache can be reused.

        Expired items are dropped and reported as misses.
        Items are validated before being served: a lost item is a plain
        miss, a corrupt one (checksum mismatch) reports ``MISS_CORRUPT``
        so the engine can account the recompute fallback separately.
        A hit refreshes the item's last-access time and LRU position.
        """
        item = self._items.get(session_id)
        if item is None:
            return _MISS
        return self._serve(item, now)

    def _serve(self, item: KVCacheItem, now: float) -> LookupResult:
        """The serve step of both lookups: validate ``item``, expire it
        (unless a session references it), or refresh it and report its
        tier."""
        if item.lost:
            self.stats.lost_items += 1
            self.drop(item.session_id)
            return _MISS
        if item.corrupt:
            self.stats.corrupt_misses += 1
            self.drop(item.session_id)
            return _MISS_CORRUPT
        if item.expired(now, self.config.ttl_seconds) and not item.refcount:
            self.stats.expired += 1
            self.drop(item.session_id)
            return _MISS
        item.touch(now)
        self._tiers[item.tier].touch(item.session_id)
        return LookupResult(
            status=_STATUS_BY_TIER[item.tier],
            n_tokens=item.n_tokens,
            n_bytes=item.n_bytes,
            ready_at=item.dram_ready_at if item.tier is Tier.DRAM else 0.0,
        )

    # ------------------------------------------------------------------
    # Save / drop / truncate
    # ------------------------------------------------------------------
    def save(
        self,
        session_id: int,
        n_tokens: int,
        now: float,
        queue: QueueView = _EMPTY_QUEUE,
        position_decoupled: bool = True,
    ) -> KVCacheItem | None:
        """Store (or replace) a session's KV cache in DRAM.

        Evicts DRAM -> disk -> out as needed.  Returns the stored item, or
        None when the cache cannot fit anywhere (it is then simply not
        retained — a store overflow).  A rejected save evicts nothing (see
        :meth:`_place`).  When a *replacement* is rejected the session's
        previous item is put back, at the MRU end of its tier, into the
        room it left: the still-reusable turn N-1 prefix must not be
        destroyed by a failed save of turn N.
        """
        item = self._put_tail(session_id, n_tokens, now, queue, position_decoupled)
        if item is None:
            return None
        self.stats.saves += 1
        return self._stored(item, now)

    def _put_tail(
        self,
        session_id: int,
        n_tokens: int,
        now: float,
        queue: QueueView,
        position_decoupled: bool,
    ) -> KVCacheItem | None:
        """Place a session's new tail in DRAM in place of its old one
        (see :meth:`save`).  A rejection is counted, and a session left
        without a tail releases its prefix reference."""
        if n_tokens <= 0:
            raise ValueError(f"n_tokens must be positive, got {n_tokens}")
        # Replacing a session's item extends it by one turn; KV blocks
        # already spilled to disk stay addressable for delta write-back
        # (lazy reclamation), so the written count survives the replace.
        # The old item is only *removed* here (the session keeps its prefix
        # reference); it is restored if the replacement cannot be admitted.
        old = self._items.get(session_id)
        if old is not None:
            self._drop(old, release_ref=False)
        item = self._build(
            session_id, n_tokens, Tier.DRAM, now, queue, position_decoupled
        )
        if item is None:
            self.stats.save_rejections += 1
            if old is not None:
                # The refused placement evicted nothing: the room is there.
                self._admit(old, self._tiers[old.tier])
            if self._prefix_of and session_id not in self._items:
                # A session holds a prefix reference only while it has a
                # tail or a running turn, and the turn saving is ending.
                self._release(session_id)
            return None
        if old is not None:
            # Clamped so the delta-write-back invariant
            # ``written_tokens <= n_tokens`` holds even if the replacement
            # shrank the item.
            item.written_tokens = min(old.written_tokens, n_tokens)
        return item

    def _build(
        self,
        key: int,
        n_tokens: int,
        tier: Tier,
        now: float,
        queue: QueueView,
        position_decoupled: bool = True,
    ) -> KVCacheItem | None:
        """Build the item of one segment, keyed ``key``, and place it in
        ``tier``; None, and nothing admitted, when it does not fit."""
        item = KVCacheItem(
            session_id=key,
            n_tokens=n_tokens,
            n_bytes=self.item_bytes(n_tokens),
            tier=tier,
            position_decoupled=position_decoupled,
            last_access=now,
        )
        home = self._tiers[tier]
        if item.n_bytes > home.capacity_bytes or not self._place(
            item, home, queue, now
        ):
            return None
        return item

    def _stored(self, item: KVCacheItem, now: float) -> KVCacheItem:
        """Draw a stored tail's corruption/loss from the injector."""
        if self.faults is not None:
            if self.faults.corrupts_save():
                item.corrupt = True
            if self.faults.loses_save():
                item.lost = True
        if self.tracer is not None:
            self._trace_occupancy(now)
        return item

    def save_to_hbm_cache(
        self,
        session_id: int,
        n_tokens: int,
        now: float,
        queue: QueueView = _EMPTY_QUEUE,
    ) -> KVCacheItem | None:
        """Retain a session's KV directly in the HBM cache tier (Figure 24's
        HBM-only/HBM+DRAM baselines).  When the HBM tier is full its
        least-recently-used items move down to DRAM as they are (or are
        dropped when DRAM cannot take them); a session the HBM tier cannot
        hold is saved to DRAM instead.
        """
        if self.hbm_tier.capacity_bytes == 0:
            return self.save(session_id, n_tokens, now, queue=queue)
        if session_id in self._items:
            self.drop(session_id)
        item = self._build(session_id, n_tokens, Tier.HBM, now, queue)
        if item is None:
            if self.dram_tier.capacity_bytes == 0:
                return None
            return self.save(session_id, n_tokens, now, queue=queue)
        self.stats.saves += 1
        return self._stored(item, now)

    def drop(self, session_id: int) -> None:
        """Retire a session from the store: release the prefix reference
        it holds (it can re-acquire one by content hash on its next turn)
        and drop its tail.  A negative id drops the shared prefix itself.
        """
        if self._prefix_of:
            self._release(session_id)
        item = self._items.get(session_id)
        if item is not None:
            self._drop(item)

    def truncate(self, session_id: int, keep_tokens: int) -> bool:
        """Apply KV-cache truncation to a stored item (Section 3.4).

        Keeps the most recent ``keep_tokens`` tokens (counted over the
        session's *full* history — shared prefix included when the session
        holds a reference).  Succeeds only when the item was saved with
        decoupled positional encodings; otherwise the item is invalidated
        and dropped, and False is returned.

        Copy-on-write: a session referencing a shared prefix that
        truncates is a *writer diverging* from the prefix.  Its reference
        is always released (readers keep the prefix untouched); any
        still-kept prefix tokens are forked into the session's tail,
        growing it in place.
        """
        item = self._items.get(session_id)
        prefix = self._prefix_of.get(session_id) if self._prefix_of else None
        if prefix is not None:
            # Divergence is unconditional: even a truncation that keeps
            # the whole prefix rewrites the session's token positions, so
            # the content hash no longer describes its history.
            self._release(session_id)
            if item is not None and item.position_decoupled and keep_tokens > 0:
                private = item.n_tokens
                target = min(keep_tokens, prefix.n_tokens + private)
                if target > private:
                    # Fork: absorb the kept prefix tokens into the tail.
                    new_bytes = self.item_bytes(target)
                    try:
                        self._tiers[item.tier].resize(session_id, target, new_bytes)
                    except OutOfBlocksError:
                        self.drop(session_id)
                        return False
                    self._total_item_bytes += new_bytes - self.item_bytes(private)
                    if item.tier is Tier.DISK:
                        # Modelling shortcut: the forked prefix bytes are
                        # accounted as already spilled with the item.
                        item.written_tokens = target
                    self.stats.cow_forks += 1
                    self.stats.truncations += 1
                    return True
                keep_tokens = target
        if item is None:
            return False
        if not item.position_decoupled:
            self.stats.invalidated += 1
            self.drop(session_id)
            return False
        if keep_tokens <= 0:
            self.drop(session_id)
            return False
        if keep_tokens >= item.n_tokens:
            return True
        new_bytes = self.item_bytes(keep_tokens)
        self._total_item_bytes -= item.n_bytes - new_bytes
        self._tiers[item.tier].resize(session_id, keep_tokens, new_bytes)
        # Off disk, the kept suffix no longer lines up with the spilled
        # prefix.
        item.written_tokens = keep_tokens if item.tier is Tier.DISK else 0
        self.stats.truncations += 1
        return True

    # ------------------------------------------------------------------
    # Migration (cluster serving)
    # ------------------------------------------------------------------
    def extract(self, session_id: int) -> KVCacheItem | None:
        """Remove and return a session's cache for migration to a peer store.

        The returned item still records the tier it resided in, so the
        caller can model the transfer source (disk items must be staged
        through the SSD link first).  Items that could not be served anyway
        (lost, corrupt) are dropped and None is returned —
        migrating them would only ship garbage across the network.

        The session is retired here, so its prefix reference is released
        even when it has no tail: it no longer reads this store.  The
        prefix itself stays — the target re-links by content hash
        (``admit_migrated``).
        """
        item = self._items.get(session_id)
        self.drop(session_id)
        if item is None or item.lost or item.corrupt:
            return None
        self.stats.migrations_out += 1
        self.stats.migrated_bytes_out += item.n_bytes
        return item

    def discard_stale(self, session_id: int) -> bool:
        """Drop the local copy after the session was re-routed elsewhere.

        Part of the migration API (with :meth:`extract` /
        :meth:`admit_migrated`): the cluster calls this on the old replica
        when the KV does not move, so at most one store ever holds a
        session's KV — a truncation on the new replica would silently
        invalidate any remote leftover.  Returns True when a copy was
        dropped: a resident one (a scatter drop) or one a crash parked
        offline (a restart discard).  A prefix reference the session
        holds here is released either way.
        """
        resident = session_id in self._items
        self.drop(session_id)
        if resident:
            self.stats.scatter_drops += 1
            return True
        parked = self._offline
        self._offline = [e for e in parked if e[0].session_id != session_id]
        dropped = len(parked) - len(self._offline)
        self.stats.restart_discards += dropped
        return dropped > 0

    def decommission(self) -> int:
        """Drop every resident item when the owning replica shuts down.

        Part of the migration API: a graceful drain migrates live
        sessions out first, then calls this to release whatever remains
        (finished sessions' KV no future turn will read).  Returns the
        number of items dropped.
        """
        # Release every prefix reference first so no prefix is dropped
        # while references to it are still outstanding.
        for session_id in list(self._prefix_of):
            self._release(session_id)
        sessions = list(self._items)
        for session_id in sessions:
            self.drop(session_id)
        return len(sessions)

    def record_migration_loss(self) -> None:
        """Count a migrating copy lost in transit (faulty inter-host link).

        The extracting side already removed the item; the next turn
        recomputes its history at the target (graceful degradation), and
        the loss shows up in ``stats.transfer_faults``.
        """
        self.stats.transfer_faults += 1

    def admit_migrated(
        self,
        session_id: int,
        n_tokens: int,
        now: float,
        ready_at: float = 0.0,
        position_decoupled: bool = True,
        queue: QueueView = _EMPTY_QUEUE,
        shared_hash: str | None = None,
        shared_tokens: int = 0,
    ) -> KVCacheItem | None:
        """Admit a cache migrated from a peer store into DRAM.

        The item lands in DRAM but only becomes usable once the modelled
        inter-host transfer completes at ``ready_at`` — a DRAM hit before
        then waits, exactly like an in-flight prefetch.  Counted as a
        migration, not a save; it draws the save faults all the same.

        When the migrating session read a shared prefix on the source,
        ``shared_hash``/``shared_tokens`` re-link it here: a prefix
        already resident is re-used (the cluster skips its bytes on the
        wire), otherwise the shipped prefix is registered here (counted
        as a shared adoption).
        """
        item = self._put_tail(session_id, n_tokens, now, queue, position_decoupled)
        if item is None:
            return None
        self._stored(item, now)
        item.dram_ready_at = ready_at
        self.stats.migrations_in += 1
        if shared_hash is not None and shared_tokens > 0:
            known = shared_hash in self._by_hash
            if self.register_shared(shared_hash, shared_tokens, now, queue=queue):
                self.acquire_shared(shared_hash, session_id)
                if not known:
                    self.stats.shared_adoptions += 1
                    # The adopted prefix rides the same modelled
                    # inter-host transfer as the tail.
                    self._by_hash[shared_hash].dram_ready_at = ready_at
        return item

    # ------------------------------------------------------------------
    # Shared prefixes (content-addressed, copy-on-write)
    # ------------------------------------------------------------------
    def register_shared(
        self,
        content_hash: str,
        n_tokens: int,
        now: float,
        queue: QueueView = _EMPTY_QUEUE,
    ) -> bool:
        """Admit (or confirm) this store's copy of a shared prefix.

        Idempotent: a hash already registered returns True without any
        admission work, which is what makes the call safe on every save
        of a prefix-bearing session.  A fresh registration places the
        prefix in DRAM as an item keyed by the next negative id — it
        competes for capacity with tails, can be demoted to disk once
        unreferenced, and obeys every byte-conservation invariant.
        Returns False when DRAM space cannot be made (the sessions simply
        keep recomputing their prefix — a capacity signal, not an error).
        """
        if content_hash in self._by_hash:
            return True
        if n_tokens <= 0:
            raise ValueError(f"n_tokens must be positive, got {n_tokens}")
        item = self._build(self._next_prefix_id, n_tokens, Tier.DRAM, now, queue)
        if item is None:
            self.stats.shared_register_failures += 1
            return False
        self._next_prefix_id -= 1
        item.content_hash = content_hash
        self._by_hash[content_hash] = item
        self.stats.shared_registered += 1
        if self.tracer is not None:
            self._trace_occupancy(now)
        return True

    def lookup_shared(self, content_hash: str, now: float) -> LookupResult:
        """Look a shared prefix up by content hash: the content index in
        front of :meth:`lookup`'s serve step, so a hit is priced exactly
        like a tail hit, and an unreferenced prefix whose TTL lapsed is
        dropped and missed."""
        item = self._by_hash.get(content_hash)
        result = _MISS if item is None else self._serve(item, now)
        if result.hit:
            self.stats.shared_hits += 1
        else:
            self.stats.shared_misses += 1
        return result

    def acquire_shared(self, content_hash: str, session_id: int) -> bool:
        """Take (or keep) a session's reference on a shared prefix.

        Idempotent per (session, hash); a session switching hashes
        releases its previous reference first.  While any reference is
        live the prefix is exempt from eviction and TTL.
        """
        prefix = self._by_hash.get(content_hash)
        if prefix is None:
            return False
        held = self._prefix_of.get(session_id)
        if held is prefix:
            return True
        if held is not None:
            self._release(session_id)
        self._prefix_of[session_id] = prefix
        prefix.refcount += 1
        self.stats.shared_acquires += 1
        return True

    def release_shared(self, session_id: int) -> bool:
        """Drop a session's prefix reference (True if one existed).

        At refcount zero the prefix is *not* dropped — it stays resident
        and becomes an ordinary eviction/TTL victim, so a late-arriving
        session with the same prefix can still hit it.
        """
        return self._release(session_id)

    def _release(self, session_id: int) -> bool:
        """The one release of a session's prefix reference."""
        prefix = self._prefix_of.pop(session_id, None)
        if prefix is None:
            return False
        prefix.refcount -= 1
        self.stats.shared_releases += 1
        return True

    def has_shared(self, content_hash: str) -> bool:
        """Whether this store holds a copy of the prefix ``content_hash``
        (migration API: lets the cluster skip prefix bytes on the wire)."""
        return content_hash in self._by_hash

    def prefix_of(self, session_id: int) -> KVCacheItem | None:
        """The shared prefix item a session reads, or None (migration API:
        consulted before extracting a session)."""
        return self._prefix_of.get(session_id)

    # ------------------------------------------------------------------
    # Placement: one tier chain, one loop
    # ------------------------------------------------------------------
    def _exempt(self) -> AbstractSet[int]:
        if not self._by_hash:
            return self._pinned
        held = {item.session_id for item in self._by_hash.values() if item.refcount}
        return self._pinned | held if held else self._pinned

    def _place(
        self, item: KVCacheItem, tier: StorageTier, queue: QueueView, now: float
    ) -> bool:
        """Make room for ``item`` (plus ``headroom_bytes``) in ``tier`` by
        one eviction plan under the tier's declared rule, then admit it
        there, moving it when it sits in another tier.

        A listed plan (on every tier but the last) is sized by
        :func:`~repro.store.policy.victims_to_apply`: a placement the whole
        plan cannot make room for evicts nothing and returns False, and one
        short of the headroom applies only the victims the item needs.  A
        plan applied as taken evicts even when the item then does not fit.
        Each victim enters the tier below (:meth:`_enter`), or is dropped
        and counted in ``evicted_out``.
        """
        block = tier.block_bytes
        before = tier.free_blocks
        item_blocks = -(-item.n_bytes // block)
        need = min(item.n_bytes + tier.headroom_bytes, tier.capacity_bytes)
        want = -(-need // block)
        victims: list[KVCacheItem] = []
        # The last tier's plan, applied as taken, lists what it applies: a
        # demoted item joins that tier's LRU order, where its next plan may take it.
        listed = victims
        if before < want:
            # Looked up per plan, so a policy patched on its class is honoured.
            policy = tier.policy
            held: Callable[[], AbstractSet[int]] = self._exempt
            if not tier.exempts_held:
                held = frozenset
            # Every tier but the last lists and sizes its plan.
            below = tier.below
            if below is not None:
                # The window and the exemption are fixed as the plan starts.
                policy.window_limit = self.eviction_window_limit()
                exempt = held()
                held = lambda: exempt
            plan = plan_evictions(
                before,
                want,
                block,
                lambda taken: policy.choose_victim(
                    tier, queue, held() | taken if taken else held()
                ),
            )
            if below is not None:
                listed = list(plan)
                count = victims_to_apply(before, item_blocks, want, block, listed)
                plan = iter(listed[:count])
            check = self.victim_check
            for victim in plan:
                if check is not None:
                    check(tier, victim)
                victims.append(victim)
                if below is None or not self._enter(victim, below, tier, queue, now):
                    self._drop(victim)
                    self.stats.evicted_out += 1
        admitted = tier.can_fit(item.n_bytes)
        if admitted:
            if self._items.get(item.session_id) is item:
                self._tiers[item.tier].remove(item.session_id)
                tier.admit(item)
            else:
                self._admit(item, tier)
        if self.placement_check is not None:
            self.placement_check(
                tier, before, item_blocks, want, listed, victims, admitted
            )
        return admitted

    def _enter(
        self,
        victim: KVCacheItem,
        tier: StorageTier,
        source: StorageTier,
        queue: QueueView,
        now: float,
    ) -> bool:
        """Move a victim of ``source`` into ``tier``, the tier below it: a
        placement, which, into the last tier (the SSD), is a spill that
        writes only the tokens not yet on disk and is undone if the SSD
        fails.  A move above the SSD is not a save: flags and prefix
        reference stay."""
        if not self._place(victim, tier, queue, now):
            return False
        if tier.below is not None:
            return True
        delta = self.item_bytes(victim.n_tokens - victim.written_tokens)
        if delta and self._over_ssd(victim, source, delta, now, "evict-spill") is None:
            return False
        victim.written_tokens = victim.n_tokens
        self.stats.evicted_to_disk += 1
        if self.tracer is not None:
            self._trace_occupancy(now)
        return True

    def _over_ssd(
        self,
        item: KVCacheItem,
        source: StorageTier,
        n_bytes: int,
        now: float,
        span: str,
    ) -> float | None:
        """Carry ``n_bytes`` of ``item``'s move out of ``source`` over the
        SSD link, traced as ``span``; return the completion time, or None
        when the transfer fails (retries exhausted or breaker open) and the
        item has moved back to ``source``."""
        done = self.transfer(self.ssd, now, n_bytes)
        if done is None:
            self._tiers[item.tier].remove(item.session_id)
            source.admit(item)
        elif self.tracer is not None:
            self.tracer.span(
                span,
                "store",
                now,
                done,
                lane="store",
                track=self.trace_track,
                args={"session": item.session_id, "bytes": n_bytes},
            )
        return done

    def _admit(self, item: KVCacheItem, tier: StorageTier) -> None:
        """Put ``item`` on the store's books in ``tier``.

        Raises:
            OutOfBlocksError: if the tier lacks the blocks; nothing changes.
        """
        tier.admit(item)
        self._items[item.session_id] = item
        self._total_item_bytes += item.n_bytes

    def _drop(self, item: KVCacheItem, release_ref: bool = True) -> None:
        """Take ``item`` off the store's books and out of its tier.  A
        tail's session releases its prefix reference (unless
        ``release_ref`` is False); a prefix leaves the content index, and
        every session reading it releases its reference (they re-register
        on their next save)."""
        sid = item.session_id
        if self._by_hash:
            if item.content_hash is not None:
                del self._by_hash[item.content_hash]
                for reader in [s for s, p in self._prefix_of.items() if p is item]:
                    self._release(reader)
            elif release_ref:
                self._release(sid)
        self._tiers[item.tier].remove(sid)
        del self._items[sid]
        self._total_item_bytes -= item.n_bytes

    def _trace_occupancy(self, now: float) -> None:
        """Sample per-tier occupancy into the tracer (one "C" event)."""
        tracer = self.tracer
        assert tracer is not None
        tracer.counter(
            "store-occupancy",
            now,
            track=self.trace_track,
            values=(
                ("hbm_bytes", float(self.hbm_tier.used_bytes)),
                ("dram_bytes", float(self.dram_tier.used_bytes)),
                ("disk_bytes", float(self.disk_tier.used_bytes)),
            ),
        )

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def ssd_available(self, now: float) -> bool:
        """Whether the SSD tier is reachable (circuit breaker not open)."""
        return self.ssd_health is None or self.ssd_health.allows(now)

    def transfer(
        self, link: Channel | ChannelPair, start: float, n_bytes: int
    ) -> float | None:
        """Carry ``n_bytes`` over ``link`` from ``start``: the one retry
        loop of every KV move, PCIe loads and saves, disk loads, spills and
        prefetches alike.

        Without an injector this is a plain ``link.transfer``.  With one, a
        link that carries the SSD (the SSD channel, or a pair whose first
        hop it is) is refused while the breaker is open; every fault is
        counted and retried with capped backoff up to the configured
        budget.  Only a fault on the SSD channel feeds the breaker, and
        only a success on a link that carries the SSD closes it.  Returns
        the completion time, or None when the transfer could not be
        completed (budget exhausted or breaker open) — callers degrade
        instead of raising.
        """
        if self.faults is None:
            return link.transfer(start, n_bytes)
        health = self.ssd_health
        assert health is not None  # built with the injector
        ssd = self.ssd
        carries_ssd = link is ssd or (
            isinstance(link, ChannelPair) and link.first is ssd
        )
        if carries_ssd and not health.allows(start):
            return None
        fc = self.faults.config
        attempt = 0
        while True:
            try:
                done = link.transfer(start, n_bytes)
            except FaultyTransfer as fault:
                self.stats.transfer_faults += 1
                if fault.channel == ssd.name and health.record_failure(start):
                    self.stats.breaker_trips += 1
                    return None
                if attempt >= fc.max_retries:
                    return None
                attempt += 1
                self.stats.transfer_retries += 1
                start = max(start, fault.busy_until) + fc.backoff(attempt)
                continue
            if carries_ssd and health.record_success():
                self.stats.breaker_recoveries += 1
            return done

    def lose_tier(self, tier: Tier) -> int:
        """Simulate a restart of one storage tier: every resident item is
        gone (an in-flight fetch's DRAM copy included).  Returns how many
        items were lost."""
        victims = [item for item in self._items.values() if item.tier is tier]
        for item in victims:
            self._drop(item)
        self.stats.lost_items += len(victims)
        return len(victims)

    def wipe_volatile(self, now: float) -> tuple[int, int]:
        """Crash the replica's volatile storage (HBM and DRAM at once).

        Every HBM/DRAM-resident item is lost (counted in ``lost_items``).
        Disk-resident items physically survive the crash but are
        unreachable until the replica restarts, so they are *parked
        offline*: removed from the store's books entirely (lookups miss
        and :meth:`extract` returns None for the whole downtime) and held
        aside for :meth:`restore_offline`.  Returns the
        ``(lost, parked)`` item counts.

        Shared prefixes: every session reference dies with the crash (the
        sessions fail over and re-link by content hash wherever they land).
        DRAM-resident prefixes are lost like any volatile item; a
        disk-resident one parks offline with its content hash, and a
        parked tail with the hash of the prefix it read — at restore, a
        tail whose prefix did not survive is useless and is discarded (KV
        is only readable prefix-first).
        """
        # Capture the prefix each session reads before the references are
        # released, so parked tails can be re-linked (or orphan-discarded)
        # at restore.
        parked_hash = {sid: p.content_hash for sid, p in self._prefix_of.items()}
        for sid in parked_hash:
            self._release(sid)
        volatile = [
            item for item in self._items.values() if item.tier is not Tier.DISK
        ]
        for item in volatile:
            self._drop(item)
        self.stats.lost_items += len(volatile)
        parked = list(self.disk_tier.iter_fifo())
        for item in parked:
            item.fetch_in_flight = False
            self._drop(item)
            self._offline.append((item, parked_hash.get(item.session_id)))
        if self.tracer is not None:
            self._trace_occupancy(now)
        return len(volatile), len(parked)

    def restore_offline(self, now: float) -> tuple[int, int]:
        """Re-admit the surviving SSD items parked by :meth:`wipe_volatile`.

        Called at replica restart; a session that failed over meanwhile
        already dropped its parked copy (:meth:`discard_stale`), so
        exactly one copy survives.  Re-admitted items count TTL from the
        restart, not from their pre-crash access.  Returns ``(readmitted,
        discarded)`` counts.

        Shared prefixes restore first (the "exactly one copy per content
        hash" invariant is per store, so re-indexing here is always legal
        — unless a fresh copy of the same hash was registered during the
        downtime, in which case the live copy wins).  Tails restore second
        so a surviving prefix can be re-linked; a tail whose prefix is no
        longer resident is discarded as an orphan.
        """
        readmitted = 0
        parked, self._offline = self._offline, []
        # Prefixes first; the sort is stable.
        for item, read in sorted(
            parked, key=lambda entry: entry[0].content_hash is None
        ):
            sid = item.session_id
            if item.content_hash is not None:
                ok = item.content_hash not in self._by_hash
            else:
                # A fresh copy written since the crash is authoritative.
                ok = sid not in self._items
                if ok and read is not None and read not in self._by_hash:
                    # Orphan: the tail is unreadable without its prefix.
                    self.stats.shared_orphan_discards += 1
                    ok = False
            if not ok:
                continue
            try:
                self._admit(item, self.disk_tier)
            except OutOfBlocksError:
                # Should not happen (the wipe emptied the disk tier), but
                # degrade to a discard rather than crash the restart.
                continue
            item.touch(now)
            readmitted += 1
            if item.content_hash is not None:
                self._by_hash[item.content_hash] = item
            elif read is not None:
                self.acquire_shared(read, sid)
        discarded = len(parked) - readmitted
        self.stats.restart_readmissions += readmitted
        self.stats.restart_discards += discarded
        if parked and self.tracer is not None:
            self._trace_occupancy(now)
        return readmitted, discarded

    @property
    def offline_items(self) -> int:
        """Items parked by :meth:`wipe_volatile`, awaiting restart."""
        return len(self._offline)

    # ------------------------------------------------------------------
    # Prefetch
    # ------------------------------------------------------------------
    def prefetch(self, queue: QueueView, now: float) -> list[tuple[int, float]]:
        """Scheduler-aware fetching of upcoming jobs' KV from disk to DRAM.

        Returns ``(session_id, ready_time)`` pairs for each fetch issued.
        Disabled when the store is configured without prefetching.  The
        fetches are the §3.3.1 window walk's decisions
        (:func:`~repro.store.prefetch.plan_prefetches`), answered by the
        incremental :class:`~repro.store.prefetch.PrefetchPlanner`.
        """
        if not self.config.enable_prefetch or len(queue) == 0:
            # An empty queue leaves the planner's state valid: the next
            # plan (after a push) drains the change log.
            return []
        if not self.disk_tier.session_ids() or not self.ssd_available(now):
            # Nothing to fetch, or the SSD breaker is open (DRAM-only
            # until a probe recovers): drop the planner's state rather than
            # let its change log grow.
            self.prefetch_planner.reset()
            return []
        fetch_ids = self.prefetch_planner.plan(queue, max(self.avg_item_bytes, 1.0))
        if self.plan_check is not None:
            self.plan_check(queue, fetch_ids)
        if not fetch_ids:
            return []

        items = self._items
        issued: list[tuple[int, float]] = []
        for session_id in fetch_ids:
            item = items.get(session_id)
            if item is None or item.tier is not Tier.DISK or item.fetch_in_flight:
                continue  # displaced by an earlier decision's eviction
            # Mark the fetch target in flight first: no policy evicts an
            # in-flight item, so making DRAM room cannot evict the very
            # item being fetched (possible when the disk is full and the
            # demotion cascade reaches it).
            item.fetch_in_flight = True
            if not self._place(item, self.dram_tier, queue, now):
                item.fetch_in_flight = False
                continue
            done = self._over_ssd(item, self.disk_tier, item.n_bytes, now, "prefetch")
            if done is None:
                # Fetch failed, the item is back on disk: a later demand
                # load (or the engine's recompute fallback) covers it.
                item.fetch_in_flight = False
                continue
            item.dram_ready_at = done
            self.stats.prefetches += 1
            self.stats.prefetched_bytes += item.n_bytes
            issued.append((item.session_id, done))
        if issued and self.tracer is not None:
            self._trace_occupancy(now)
        return issued

    def complete_fetch(self, session_id: int) -> None:
        """Mark an in-flight prefetch as finished (engine callback)."""
        item = self._items.get(session_id)
        if item is not None:
            item.fetch_in_flight = False

    # ------------------------------------------------------------------
    # TTL
    # ------------------------------------------------------------------
    def sweep_expired(self, now: float) -> int:
        """Drop all items whose TTL has lapsed, but for referenced shared
        prefixes; return how many."""
        expired = [
            item
            for item in self._items.values()
            if item.expired(now, self.config.ttl_seconds)
            and not item.fetch_in_flight
            and not item.refcount
        ]
        for item in expired:
            self._drop(item)
        self.stats.expired += len(expired)
        return len(expired)

    # ------------------------------------------------------------------
    # Consistency checking
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert internal bookkeeping consistency (test/debug hook).

        Verified invariants:

        * the sum of resident item sizes equals ``total_item_bytes``;
        * every item is resident in exactly the tier it records, and each
          tier holds only those items (so no item sits in two tiers);
        * each tier's free blocks equal its total blocks minus
          ``ceil(n_bytes / block_bytes)`` summed over its residents, and
          never go negative (no tier exceeds its capacity);
        * the DRAM tier's pinned-byte counter equals the DRAM bytes of the
          pinned sessions, recounted;
        * an item's delta-write-back count never exceeds its token count;
        * shared-prefix bookkeeping is closed: the content index holds
          exactly the resident items that carry a hash, every reference
          points at an indexed prefix, and each prefix's refcount equals
          its live references;
        * a session holds a prefix reference only while it has a resident
          tail or is pinned (a running turn).

        Raises:
            AssertionError: on any violation.
        """
        total = 0
        for session_id, item in self._items.items():
            assert item.session_id == session_id, (
                f"item keyed {session_id} claims session {item.session_id}"
            )
            assert self._tiers[item.tier].get(session_id) is item, (
                f"session {session_id} not resident in recorded tier "
                f"{item.tier.value}"
            )
            assert 0 <= item.written_tokens <= item.n_tokens, (
                f"session {session_id}: written_tokens {item.written_tokens} "
                f"outside 0..n_tokens {item.n_tokens}"
            )
            total += item.n_bytes
        assert total == self._total_item_bytes, (
            f"sum of item bytes {total} != total_item_bytes "
            f"{self._total_item_bytes}"
        )
        for tier in self._tiers.values():
            assert len(tier) == sum(
                1 for item in self._items.values() if item.tier is tier.tier
            ), f"tier {tier.tier.value} holds items the store does not track there"
            block = tier.block_bytes
            used = sum(-(-item.n_bytes // block) for item in tier.iter_fifo())
            assert tier.free_blocks == tier.total_blocks - used, (
                f"tier {tier.tier.value}: {tier.free_blocks} free blocks, its "
                f"residents leave {tier.total_blocks - used} of "
                f"{tier.total_blocks}"
            )
            assert tier.free_blocks >= 0, (
                f"tier {tier.tier.value} over capacity by "
                f"{-tier.free_blocks} blocks"
            )
        pinned_bytes = sum(
            item.n_bytes
            for item in map(self.dram_tier.get, self._pinned)
            if item is not None
        )
        assert self.dram_tier.pinned_bytes == pinned_bytes, (
            f"DRAM pinned-byte counter {self.dram_tier.pinned_bytes} != "
            f"pinned sessions' DRAM bytes {pinned_bytes}"
        )
        for item, _hash in self._offline:
            assert item.session_id not in self._items, (
                f"session {item.session_id} both resident and parked offline"
            )
        refs: dict[int, int] = {}
        for session_id, prefix in self._prefix_of.items():
            assert session_id >= 0, (
                f"shared prefix {session_id} holds a prefix reference"
            )
            assert session_id in self._items or session_id in self._pinned, (
                f"session {session_id} holds a prefix reference with neither "
                f"a tail nor a running turn"
            )
            assert prefix.content_hash is not None and (
                self._by_hash.get(prefix.content_hash) is prefix
            ), f"session {session_id} references an unindexed prefix"
            refs[prefix.session_id] = refs.get(prefix.session_id, 0) + 1
        indexed = 0
        for session_id, item in self._items.items():
            if item.content_hash is None:
                assert not item.refcount, (
                    f"tail {session_id} has refcount {item.refcount}"
                )
                continue
            indexed += 1
            assert self._by_hash.get(item.content_hash) is item, (
                f"shared prefix {session_id} missing from the content index"
            )
            assert item.refcount == refs.get(session_id, 0), (
                f"shared prefix {session_id}: refcount {item.refcount} != "
                f"live references {refs.get(session_id, 0)}"
            )
        assert indexed == len(self._by_hash), (
            "content index holds prefixes the store does not"
        )
