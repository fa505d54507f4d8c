"""The inference job scheduler's waiting queue.

The queue is FIFO, but — crucially for CachedAttention — it is also the
*look-ahead oracle*: AttentionStore's scheduler-aware fetching and eviction
(Section 3.3) read upcoming jobs from it through the
:class:`~repro.store.policy.QueueView` protocol.  Position queries are O(1)
via monotonically increasing sequence numbers (a session has at most one
waiting job at a time, since the next turn only arrives after the previous
response).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator

from .request import TurnRequest


class SchedulerQueue:
    """FIFO job queue with O(1) look-ahead position queries."""

    # A session appears at most once, so look-ahead windows never need
    # de-duplication.
    window_unique = True

    def __init__(self) -> None:
        self._queue: deque[TurnRequest] = deque()
        # Session ids in queue order, maintained in lockstep with
        # ``_queue``.  Look-ahead windows slice this deque of ints at C
        # speed instead of touching each TurnRequest object.
        self._ids: deque[int] = deque()
        self._seq_by_session: dict[int, int] = {}
        self._next_seq = 0
        self._head_seq = 0
        self._pending_tokens = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    @property
    def pending_tokens(self) -> int:
        """Question + answer tokens of all waiting jobs (O(1)).

        The load signal cluster routers use for least-loaded balancing.
        """
        return self._pending_tokens

    def push(self, request: TurnRequest) -> None:
        """Append a job to the queue tail.

        Raises:
            ValueError: if the session already has a waiting job.
        """
        if request.session_id in self._seq_by_session:
            raise ValueError(
                f"session {request.session_id} already has a waiting job"
            )
        request.seq = self._next_seq
        self._next_seq += 1
        self._seq_by_session[request.session_id] = request.seq
        self._queue.append(request)
        self._ids.append(request.session_id)
        self._pending_tokens += request.q_tokens + request.a_tokens

    def pop(self) -> TurnRequest:
        """Remove and return the job at the queue head.

        Raises:
            IndexError: if the queue is empty.
        """
        request = self._queue.popleft()
        self._ids.popleft()
        del self._seq_by_session[request.session_id]
        self._pending_tokens -= request.q_tokens + request.a_tokens
        if self._queue:
            self._head_seq = self._queue[0].seq
        else:
            self._head_seq = self._next_seq
        return request

    def peek(self) -> TurnRequest | None:
        return self._queue[0] if self._queue else None

    # ------------------------------------------------------------------
    # QueueView protocol (scheduler hints for AttentionStore)
    # ------------------------------------------------------------------
    def position(self, session_id: int) -> int | None:
        """Approximate distance of a session's waiting job from the head.

        Exact whenever no job has left the queue out of order — which is
        always, since the queue is strictly FIFO.
        """
        seq = self._seq_by_session.get(session_id)
        if seq is None:
            return None
        return seq - self._head_seq

    def position_map(self) -> tuple[dict[int, int], int]:
        """Bulk-position accessor: ``(seq_by_session, head_seq)``.

        ``position(sid) == seq_by_session[sid] - head_seq`` (or ``None``
        when absent).  The dict is live and insertion-ordered by seq, and
        waiting seqs are exactly ``head_seq .. head_seq + len - 1``: the
        prefetch planner syncs on that, and the eviction policy filters
        candidates through the dict at C speed.
        """
        return self._seq_by_session, self._head_seq

    def head_window(self, k: int) -> Iterator[int]:
        """Session ids of the first ``k`` waiting jobs, head first."""
        return iter(islice(self._ids, k))

    def head_window_list(self, k: int) -> list[int]:
        """``head_window`` materialised as a list.

        One C-level slice of the id deque (the eviction policy's window
        when it is shorter than the queue) beats traversing TurnRequest
        objects.
        """
        return list(islice(self._ids, k))
