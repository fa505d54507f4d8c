"""Eviction policies for AttentionStore tiers.

The paper compares its scheduler-aware policy (Section 3.3.2) against LRU
and FIFO (Figure 21).  A policy picks one victim at a time;
:func:`plan_evictions`, the store's one eviction planner, asks it
repeatedly until enough blocks would be free, and :func:`victims_to_apply`
sizes a listed plan against the room its placement can reach.

Tiers keep LRU and FIFO orderings incrementally, so LRU and FIFO take the
first evictable item of their ordering.  The scheduler-aware policy reads
queue positions from the view's seq map and filters the LRU ordering with
C-level iterators: no Python step per waiting session, whatever the
backlog.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import filterfalse
from typing import (
    AbstractSet,
    Callable,
    Container,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from .item import KVCacheItem
from .tier import StorageTier


@runtime_checkable
class QueueView(Protocol):
    """The scheduler-queue visibility AttentionStore policies rely on."""

    #: True when no session appears twice in the queue, so windows need
    #: no de-duplication.
    window_unique: bool

    def position(self, session_id: int) -> int | None:
        """Distance of the session's earliest waiting job from the queue
        head, or None if the session has no waiting job."""

    def position_map(self) -> tuple[dict[int, int], int]:
        """``(seqs, head)`` with ``position(sid) == seqs[sid] - head``.

        ``seqs`` is the view's live map, insertion-ordered by seq.  Between
        two calls on the same view, jobs only leave at the head and join at
        the tail with consecutive seqs — the contract the incremental
        prefetch planner syncs on.
        """

    def head_window(self, k: int) -> Iterator[int]:
        """Session ids of the first ``k`` waiting jobs, head first."""

    def head_window_list(self, k: int) -> list[int]:
        """``head_window`` materialised as a list."""

    def __len__(self) -> int: ...


class EmptyQueueView:
    """A queue view with no waiting jobs (for tests and history-only use)."""

    window_unique = True

    def position(self, session_id: int) -> int | None:
        return None

    def position_map(self) -> tuple[dict[int, int], int]:
        return {}, 0

    def head_window(self, k: int) -> Iterator[int]:
        return iter(())

    def head_window_list(self, k: int) -> list[int]:
        return []

    def __len__(self) -> int:
        return 0


class ListQueueView:
    """Queue view over a static list of upcoming session ids (head first).

    A session may repeat; its position is its first occurrence.
    """

    window_unique = False

    def __init__(self, session_ids: Iterable[int]) -> None:
        self._ids = list(session_ids)
        self._pos: dict[int, int] = {}
        for idx, sid in enumerate(self._ids):
            self._pos.setdefault(sid, idx)

    def position(self, session_id: int) -> int | None:
        return self._pos.get(session_id)

    def position_map(self) -> tuple[dict[int, int], int]:
        return self._pos, 0

    def head_window(self, k: int) -> Iterator[int]:
        return iter(self._ids[:k])

    def head_window_list(self, k: int) -> list[int]:
        return self._ids[:k]

    def __len__(self) -> int:
        return len(self._ids)


def _evictable(item: KVCacheItem, pinned: AbstractSet[int]) -> bool:
    return item.session_id not in pinned and not item.fetch_in_flight


class EvictionPolicy(ABC):
    """Chooses the next eviction victim in a tier."""

    name: str = "abstract"
    #: The look-ahead eviction window (§3.3.2), set by the store when a
    #: listed plan starts; only the scheduler-aware policy reads it.
    window_limit: int | None = None

    @abstractmethod
    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        """Return the next item to evict from ``tier``, or None if every
        resident item is pinned or in flight."""


class LRUPolicy(EvictionPolicy):
    """Least-recently-used: evict the item idle the longest."""

    name = "lru"

    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        for item in tier.iter_lru():
            if _evictable(item, pinned):
                return item
        return None


class FIFOPolicy(EvictionPolicy):
    """First-in-first-out: evict the item that entered the tier earliest."""

    name = "fifo"

    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        for item in tier.iter_fifo():
            if _evictable(item, pinned):
                return item
        return None


class SchedulerAwarePolicy(EvictionPolicy):
    """The paper's scheduler-aware eviction (Section 3.3.2).

    Among evictable items (not pinned, no fetch in flight):

    1. An item whose session appears in the look-ahead eviction window (the
       next ``window_limit`` waiting jobs) is *exempted* while any item
       outside the window exists; outside-window items are evicted
       LRU-first.
    2. If every candidate has a waiting job inside the window, the one
       whose job is furthest from the queue head is evicted — scanning the
       window from tail to head, it is the first found resident.

    Rule 1 filters the tier's LRU ids through the window and pinned sets at
    C level; rule 2 ranks the tier's waiting sessions by queue seq with one
    C-level sort.
    """

    name = "scheduler-aware"

    def __init__(self, window_limit: int | None = None) -> None:
        self.window_limit = window_limit

    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        seqs, _head = queue.position_map()
        waiting = len(queue)
        limit = waiting if self.window_limit is None else self.window_limit
        # Every waiting session sits inside a window at least as long as
        # the queue, so the seq map doubles as the window's member set.
        window: Container[int] = (
            seqs if limit >= waiting else set(queue.head_window_list(max(0, limit)))
        )
        lru = tier.lru_order()
        outside: Iterator[int] = filterfalse(window.__contains__, lru)
        if pinned:
            outside = filterfalse(pinned.__contains__, outside)
        for session_id in outside:
            item = lru[session_id]
            if not item.fetch_in_flight:
                return item
        # Rule 2: every evictable item's job is inside the window.
        inside: Iterator[int] = filter(window.__contains__, lru)
        if pinned:
            inside = filterfalse(pinned.__contains__, inside)
        for session_id in sorted(inside, key=seqs.__getitem__, reverse=True):
            item = lru[session_id]
            if not item.fetch_in_flight:
                return item
        return None


#: A victim source: the next victim of one tier, never one whose session
#: id is in the given set, or None when no evictable item remains.
VictimSource = Callable[[AbstractSet[int]], KVCacheItem | None]


def plan_evictions(
    free_blocks: int, want_blocks: int, block_bytes: int, choose: VictimSource
) -> Iterator[KVCacheItem]:
    """Yield a tier's eviction victims, one at a time, until ``want_blocks``
    of its blocks would be free (§3.3.2 over §4.1's blocks).

    ``free_blocks`` is the tier's free count now; each victim frees the
    blocks it holds.  ``choose(taken)`` is the victim source, given the
    session ids already yielded; the plan ends short when it returns None.
    The planner itself only reads, so a caller may list a plan before
    applying any of it, or apply each victim as it is yielded.
    """
    taken: set[int] = set()
    while free_blocks < want_blocks:
        victim = choose(taken)
        if victim is None:
            return
        yield victim
        taken.add(victim.session_id)
        free_blocks += -(-victim.n_bytes // block_bytes)


def victims_to_apply(
    free_blocks: int,
    item_blocks: int,
    want_blocks: int,
    block_bytes: int,
    victims: Sequence[KVCacheItem],
) -> int:
    """How many of a listed plan's ``victims`` its placement applies.

    Zero when all of them still leave fewer than ``item_blocks`` free: the
    placement is refused, and evicting would gain nothing (tested first:
    ``want_blocks``, capped at the tier's capacity, can be the smaller).
    When all of them reach the item but not ``want_blocks`` (its room plus
    headroom), the shortest prefix that frees the item's room.  Otherwise
    all.
    """
    sizes = [-(-victim.n_bytes // block_bytes) for victim in victims]
    reach = free_blocks + sum(sizes)
    if reach < item_blocks:
        return 0
    if reach >= want_blocks:
        return len(victims)
    count = 0
    while free_blocks < item_blocks:
        free_blocks += sizes[count]
        count += 1
    return count
