"""Scheduler-aware KV-cache fetching from disks to host memory.

Section 3.3.1: a look-ahead *prefetching window* watches the waiting jobs
in the scheduler's queue; any waiting job whose KV cache sits on disk is
fetched into DRAM before the job runs.  The window length is bounded by the
DRAM capacity available for prefetching: ``L_pw = C_mem / S_kv``.

The plan walks the queue head-first and charges every window job's KV
footprint against the byte budget — including jobs whose caches are
*already* in DRAM — so the cumulative window footprint never overcommits
the memory reserved for prefetching (overcommit would evict the window's
own tail and thrash the SSD).  Exactly:

* ``budget = int(max(0, C_dram - pinned DRAM bytes) * fraction)``, where
  the pinned bytes are the running sessions' DRAM bytes;
* the window is the first ``max(1, int(budget / S_kv))`` waiting jobs;
* every stored item is charged head-first, and the walk stops at
  the first item that does not fit;
* items on disk and not in flight are fetched, in queue order.

:func:`plan_prefetches` is that walk, written out; it is the reference
the tests and SimSan compare against.  :class:`PrefetchPlanner` is what
:meth:`AttentionStore.prefetch` runs: the same decisions from state kept
current as the queue and the tiers change.  A plan that fetches nothing
touches no window entry and costs O(log n) in the backlog, whatever the
number of pinned sessions (the DRAM tier counts their bytes as they move);
only a change to a waiting session's stored bytes (rare: a drop or
truncation while it waits) costs a C-level O(n) update of the prefix sums.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Callable, KeysView

from .item import KVCacheItem, Tier
from .policy import QueueView
from .tier import StorageTier


@dataclass(frozen=True, slots=True)
class PrefetchDecision:
    """One planned disk -> DRAM fetch."""

    session_id: int
    n_bytes: int
    queue_position: int


@dataclass(frozen=True, slots=True)
class WindowEntry:
    """Residency of one waiting job's KV cache, as seen by the planner.

    ``n_bytes`` is the item footprint; ``on_disk`` is True when the item is
    fetchable from disk (False means it already occupies DRAM/HBM or is in
    flight, which still consumes window budget).
    """

    n_bytes: int
    on_disk: bool


def plan_prefetches(
    queue: QueueView,
    residency: Callable[[int], WindowEntry | None],
    prefetch_budget_bytes: int,
    avg_item_bytes: float,
) -> list[PrefetchDecision]:
    """Choose which waiting jobs' KV caches to fetch from disk.

    Args:
        queue: the scheduler's waiting jobs (head first).
        residency: maps a session id to its stored item's
            :class:`WindowEntry`, or None when nothing is stored.
        prefetch_budget_bytes: DRAM bytes the look-ahead window may occupy.
        avg_item_bytes: running average KV-item size ``S_kv``, used to bound
            the number of queue entries examined (``budget / S_kv``).

    Returns:
        Fetches in queue order.  The walk stops when the byte budget is
        exhausted, so the window never overcommits DRAM.
    """
    if prefetch_budget_bytes <= 0 or len(queue) == 0:
        return []
    window_len = max(1, int(prefetch_budget_bytes / max(avg_item_bytes, 1.0)))
    decisions: list[PrefetchDecision] = []
    budget = prefetch_budget_bytes
    seen: set[int] = set()
    for pos, session_id in enumerate(queue.head_window(window_len)):
        if session_id in seen:
            continue
        seen.add(session_id)
        entry = residency(session_id)
        if entry is None:
            continue
        if entry.n_bytes > budget:
            break  # window is full; later jobs wait for the next plan
        budget -= entry.n_bytes
        if entry.on_disk:
            decisions.append(
                PrefetchDecision(
                    session_id=session_id,
                    n_bytes=entry.n_bytes,
                    queue_position=pos,
                )
            )
    return decisions


_DISK = Tier.DISK
#: Jobs that left the head before the planner's lists drop them.
_TRIM_AT = 1024


def _fetchable(item: KVCacheItem | None) -> bool:
    return item is not None and item.tier is _DISK and not item.fetch_in_flight


class PrefetchPlanner:
    """Incremental planner state for one store's :meth:`prefetch`.

    Waiting jobs are indexed by their queue sequence number (``seq``;
    position = ``seq - head``).  Two pieces of state answer a plan, with
    the byte budget read from the DRAM tier's pinned-byte counter:

    * ``_cum`` — prefix sums of the charged bytes in queue order (an
      absent item charges 0; a repeated session charges only at
      its first occurrence).  The walk reaches the job at ``seq`` iff its
      position is inside the window and the charges up to and including it
      fit the budget, one subtraction and compare.
    * ``_cands`` — sorted seqs of waiting jobs whose item was fetchable
      when last seen.  Entries are validated lazily: the first live one
      decides a no-op plan, and stale ones are trimmed from the front.

    The queue is synced lazily at each plan from ``position_map()``: jobs
    only leave at the head and join at the tail with consecutive seqs, in
    the insertion order of the seq map.  A different view object triggers
    a full rebuild (that is how :class:`ListQueueView` is planned).  Tier
    changes reach the planner through :attr:`changes`, the session ids
    the store's tiers admitted, removed or resized since the last
    plan.
    """

    __slots__ = (
        "changes",
        "_items",
        "_dram",
        "_fraction",
        "_queue",
        "_seqs",
        "_waiting",
        "_base",
        "_head",
        "_next",
        "_sids",
        "_cum",
        "_cands",
    )

    def __init__(
        self,
        items: dict[int, KVCacheItem],
        changes: list[int],
        dram: StorageTier,
        fraction: float,
    ) -> None:
        """Plan over the store's ``items``, whose tiers log into
        ``changes``; ``fraction`` is the share of the ``dram`` tier's
        capacity, less its pinned bytes, that prefetching may use.
        """
        self._items = items
        #: Session ids whose stored item may have changed since the last
        #: plan; filled by the store's tiers, drained by :meth:`plan`.
        self.changes = changes
        self._dram = dram
        self._fraction = fraction
        self._queue: QueueView | None = None
        self._seqs: dict[int, int] = {}
        self._waiting: KeysView[int] = self._seqs.keys()
        self._base = self._head = self._next = 0
        self._sids: list[int] = []
        self._cum: list[int] = [0]
        self._cands: list[int] = []

    def reset(self) -> None:
        """Forget the queue; the next plan rebuilds from scratch.

        The store calls this whenever it skips planning, so :attr:`changes`
        never outgrows the tier operations of one stretch between plans.
        """
        self._queue = None
        self.changes.clear()

    def plan(self, queue: QueueView, avg_bytes: float) -> list[int]:
        """Session ids to fetch, in queue order (see the module docstring).

        ``avg_bytes`` is ``S_kv`` already clamped to at least 1.
        """
        if queue is self._queue:
            seqs, head = queue.position_map()
            if head != self._head:
                if head <= self._next and head - self._base <= _TRIM_AT:
                    self._head = head
                else:
                    self._advance(head)
            joined = head + len(queue) - self._next
            if joined == 1:  # the common case: one push since the last plan
                self._append(next(reversed(seqs)))
            elif joined:
                for session_id in reversed(list(islice(reversed(seqs), joined))):
                    self._append(session_id)
        else:
            self._rebuild(queue)
        changes = self.changes
        if changes:
            if not self._waiting.isdisjoint(changes):
                self._recharge(changes)
            changes.clear()
        cands = self._cands
        if not cands:
            return []
        items, sids, base, head = self._items, self._sids, self._base, self._head
        # Drop stale candidates ahead of the first fetchable one.
        at = bisect_left(cands, head) if cands[0] < head else 0
        while at < len(cands) and not _fetchable(items.get(sids[cands[at] - base])):
            at += 1
        if at:
            del cands[:at]
            if not cands:
                return []
        dram = self._dram
        budget = int(
            max(0, dram.capacity_bytes - dram.pinned_bytes) * self._fraction
        )
        if budget <= 0:
            return []
        cum = self._cum
        ceiling = cum[head - base] + budget
        seq = cands[0]
        end = head + max(1, int(budget / avg_bytes))
        if seq >= end or cum[seq - base + 1] > ceiling:
            return []
        fetch = [sids[seq - base]]
        for seq in islice(cands, 1, None):
            if seq >= end or cum[seq - base + 1] > ceiling:
                break
            session_id = sids[seq - base]
            if _fetchable(items.get(session_id)):
                fetch.append(session_id)
        return fetch

    # ------------------------------------------------------------------
    # Queue sync
    # ------------------------------------------------------------------
    def _clear(self, head: int) -> None:
        self._base = self._head = self._next = head
        self._sids = []
        self._cum = [0]
        self._cands = []

    def _append(self, session_id: int, first: bool = True) -> None:
        """Index the job that joined the tail at seq ``_next``; a repeat of
        an earlier waiting session (``first`` False) charges nothing."""
        item = self._items.get(session_id)
        cum = self._cum
        if first and item is not None:
            cum.append(cum[-1] + item.n_bytes)
            if item.tier is _DISK and not item.fetch_in_flight:
                self._cands.append(self._next)
        else:
            cum.append(cum[-1])
        self._sids.append(session_id)
        self._next += 1

    def _rebuild(self, queue: QueueView) -> None:
        seqs, head = queue.position_map()
        self._queue = queue
        self._seqs = seqs
        self._waiting = seqs.keys()
        self._clear(head)
        self.changes.clear()
        unique = queue.window_unique
        for session_id in queue.head_window_list(len(queue)):
            self._append(session_id, unique or seqs.get(session_id) == self._next)

    def _advance(self, head: int) -> None:
        """Catch up with the jobs that left the head."""
        if head > self._next:
            self._clear(head)
            return
        self._head = head
        dropped = head - self._base
        if dropped > _TRIM_AT:
            del self._sids[:dropped]
            del self._cum[:dropped]
            self._base = head

    # ------------------------------------------------------------------
    # Tier changes
    # ------------------------------------------------------------------
    def _recharge(self, changes: list[int]) -> None:
        """Re-read the items of the waiting sessions among ``changes``:
        their charges, and whether they became disk candidates."""
        items, seqs, base = self._items, self._seqs, self._base
        cum, cands = self._cum, self._cands
        for session_id in filter(seqs.__contains__, changes):
            seq = seqs[session_id]
            index = seq - base
            item = items.get(session_id)
            if item is not None:
                charge = item.n_bytes
                if item.tier is _DISK and not item.fetch_in_flight:
                    at = bisect_left(cands, seq)
                    if at == len(cands) or cands[at] != seq:
                        cands.insert(at, seq)
            else:
                charge = 0
            delta = charge - (cum[index + 1] - cum[index])
            if delta:
                cum[index + 1 :] = map(delta.__add__, cum[index + 1 :])

    # ------------------------------------------------------------------
    # Consistency check (SimSan)
    # ------------------------------------------------------------------
    def check(self, queue: QueueView, disk_ids: KeysView[int]) -> None:
        """Assert the state matches a recomputation from ``queue`` and the
        store: the waiting jobs in order, their charges and prefix sums, and
        a candidate for every waiting session on disk.  Call right after
        :meth:`plan`.

        Raises:
            AssertionError: naming the session and queue seq that differ.
        """
        items, seqs, base, cum = self._items, self._seqs, self._base, self._cum
        assert self._next - self._head == len(queue), (
            f"planner tracks {self._next - self._head} waiting jobs from queue "
            f"seq {self._head}, the queue holds {len(queue)}"
        )
        for seq in range(self._head, self._next):
            index = seq - base
            session_id = self._sids[index]
            first = seqs.get(session_id) == seq
            assert first or not queue.window_unique, (
                f"planner has session {session_id} at queue seq {seq}, the "
                f"queue at seq {seqs.get(session_id)}"
            )
            item = items.get(session_id)
            charge = item.n_bytes if first and item is not None else 0
            assert cum[index + 1] - cum[index] == charge, (
                f"planner charges session {session_id} at queue seq {seq} "
                f"{cum[index + 1] - cum[index]} bytes, the store holds {charge}"
            )
        cands = set(self._cands)
        for session_id in disk_ids:
            seq = seqs.get(session_id)
            if seq is not None and _fetchable(items.get(session_id)):
                assert seq in cands, (
                    f"session {session_id} at queue seq {seq} is on disk but "
                    "missing from the planner's disk candidates"
                )
