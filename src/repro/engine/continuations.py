"""Preallocated continuation objects for the engine's turn lifecycle.

The original turn path scheduled a fresh closure per event — an
epoch-guard wrapper (``_after_epoch``'s ``fire``) around a capture
lambda for every decode chunk, prefill, save block and think-time
timer.  At replay scale that is two allocations and two call frames per
event, and a per-callback host-time breakdown collapsed 98 % of loop time
into two anonymous closure names (see DESIGN.md §13).

This module replaces the pattern with small ``__slots__`` callables:

* **Epoch-guarded continuations** (:class:`DecodeChunkDone`,
  :class:`PrefillSliceDone`, :class:`SaveBlockDone`, :class:`TtlSweep`)
  store the crash epoch they were scheduled under and no-op when the
  engine's epoch has moved — exactly the ``_after_epoch`` semantics,
  with the check inlined into ``__call__`` instead of a wrapper frame.
  The event still *fires* (a crash cannot unschedule it), so event
  counts stay bit-identical to the closure implementation.
* **Single-flight reuse**: the GPU serialises prefills, decode chunks
  and save blocks, so at most one instance of each continuation
  is pending at a time.  The engine preallocates one of each and
  mutates its fields at schedule time — zero per-event allocation.  A
  crash drops the preallocated set (:meth:`ServingEngine.crash` calls
  ``_init_continuations``): a stale instance may still sit in the event
  queue, and reusing it would alias the old scheduled event with the
  new work's fields, turning the epoch no-op into an early fire.
* **Per-session reuse**: :class:`NextTurnTimer` lives on the
  :class:`~repro.engine.session.SessionState` and is rescheduled for
  every think-time gap (one pending timer per session, and think timers
  deliberately survive crashes — clients keep typing into an outage).
* **Named one-shots** (:class:`SessionStart`, :class:`FetchDone`,
  :class:`TierLoss`, :class:`StreamArrival`): allocated where several
  can be in flight at once, still slotted and class-named so host-time
  tooling (``perfbench/run.py --trace 1``) attributes cost to the
  operation instead of to ``<locals>.<lambda>``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..store.attention_store import AttentionStore
    from ..store.item import Tier
    from ..workload.trace import Conversation
    from .batching import ActiveJob
    from .engine import ServingEngine
    from .session import SessionState

#: Placeholder for not-yet-scheduled slots; never invoked (the engine
#: always assigns real fields before handing a continuation to the
#: simulator).
_UNSET = None


class SessionStart:
    """Arrival of one pre-scheduled conversation (materialised trace)."""

    __slots__ = ("engine", "conv")

    def __init__(self, engine: "ServingEngine", conv: "Conversation") -> None:
        self.engine = engine
        self.conv = conv

    def __call__(self) -> None:
        self.engine._start_session(self.conv)


class StreamArrival:
    """The single pending arrival of a streamed trace.

    Streaming replays keep exactly one arrival event in flight: when it
    fires, the engine starts the session and this same instance is
    rescheduled at the next conversation pulled from the generator —
    O(1) arrival state however long the stream is.
    """

    __slots__ = ("engine", "conv")

    def __init__(self, engine: "ServingEngine", conv: "Conversation") -> None:
        self.engine = engine
        self.conv = conv

    def __call__(self) -> None:
        self.engine._on_stream_arrival(self)


class NextTurnTimer:
    """A session's think-time timer; fires the next turn's submission.

    One instance per session, created at the first completion and
    rescheduled for every later turn (at most one is pending per
    session).  ``engine`` is refreshed at schedule time because a
    cluster may complete consecutive turns of one session on different
    replicas; the routing hook is read at fire time, matching the
    hook's installed-for-the-whole-run contract.  Deliberately *not*
    epoch-guarded: think timers survive replica crashes.
    """

    __slots__ = ("engine", "session")

    def __init__(self, engine: "ServingEngine", session: "SessionState") -> None:
        self.engine = engine
        self.session = session

    def __call__(self) -> None:
        engine = self.engine
        hook = engine.next_turn_hook
        if hook is not None:
            hook(engine, self.session)
        else:
            engine._submit_next_turn(self.session)


class PrefillSliceDone:
    """End of one turn's prefill, which runs whole; epoch-guarded.

    Host-time tooling reports the event by this class name
    (``engine.PrefillSliceDone``), so the name stays.
    """

    __slots__ = ("engine", "epoch", "job")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch
        self.job: "ActiveJob | None" = _UNSET

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            job = self.job
            assert job is not None
            engine._on_prefill_done(job)


class DecodeChunkDone:
    """End of one decode chunk; epoch-guarded."""

    __slots__ = ("engine", "epoch", "n_iters", "duration", "batch_len")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch
        self.n_iters = 0
        self.duration = 0.0
        self.batch_len = 0

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            engine._on_decode_chunk_done(self.n_iters, self.duration, self.batch_len)


class SaveBlockDone:
    """End of the residual KV write-back blocking window; epoch-guarded."""

    __slots__ = ("engine", "epoch")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            engine._on_save_block_done()


class TtlSweep:
    """Self-rescheduling TTL expiry sweep; epoch-guarded so a sweep
    armed before a crash does not race the one restart() re-arms."""

    __slots__ = ("engine", "epoch")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            engine._ttl_sweep()


class FetchDone:
    """Completion of one scheduler-aware prefetch transfer.

    Allocated per prefetch (several can be in flight concurrently), but
    slotted and class-named like the single-flight continuations.
    """

    __slots__ = ("store", "session_id")

    def __init__(self, store: "AttentionStore", session_id: int) -> None:
        self.store = store
        self.session_id = session_id

    def __call__(self) -> None:
        self.store.complete_fetch(self.session_id)


class TierLoss:
    """A fault-injected storage-tier loss at an absolute time."""

    __slots__ = ("store", "tier")

    def __init__(self, store: "AttentionStore", tier: "Tier") -> None:
        self.store = store
        self.tier = tier

    def __call__(self) -> None:
        self.store.lose_tier(self.tier)
