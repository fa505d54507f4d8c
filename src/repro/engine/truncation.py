"""Context-window overflow handling (Sections 2.4, 3.4).

When a session's prompt (history + new question) exceeds the model's
context window, serving engines truncate the oldest tokens.  The paper's
truncation ratio of 0.5 means each overflow discards the earliest
``window * 0.5`` tokens.

Three strategies differ in what happens to any *stored* KV cache:

* ``TOKEN`` (TT): truncate the token history and recompute everything —
  the RE baseline; nothing is stored, so nothing is invalidated.
* ``KV_DECOUPLED`` (CA): KV was stored without positional encodings, so
  the store truncates the cached KV directly and it stays reusable.
* ``KV_EMBEDDED`` (OF): KV was stored *with* positions embedded; any
  truncation scrambles them, so the stored cache must be invalidated and
  the truncated prompt recomputed.

Each turn is planned from values only: :func:`apply_context_window` keeps
what fits, then :func:`plan_turn` decides how much of it is reused, from
which tier, and what is recomputed.  The engine runs the effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..store.attention_store import LookupResult, LookupStatus
from .metrics import OUTCOME_OF_LOOKUP, TurnOutcome


@dataclass(frozen=True, slots=True)
class TruncationOutcome:
    """Result of applying the context-window policy to a turn's prompt."""

    history_tokens: int
    q_tokens: int
    dropped_tokens: int

    @property
    def prompt_tokens(self) -> int:
        return self.history_tokens + self.q_tokens

    @property
    def overflowed(self) -> bool:
        return self.dropped_tokens > 0


def apply_context_window(
    history_tokens: int,
    q_tokens: int,
    context_window: int,
    truncation_ratio: float,
) -> TruncationOutcome:
    """Truncate the oldest history so the prompt fits the context window.

    Each overflow event discards the earliest ``context_window *
    truncation_ratio`` tokens (Section 4.1: ratio 0.5 — "discard the
    earliest half of the tokens"), repeating if one cut is not enough.
    If the new question alone exceeds the window it is clamped to the
    window (the serving engine cannot accept a longer prompt).
    """
    if history_tokens < 0:
        raise ValueError(f"history_tokens must be >= 0, got {history_tokens}")
    if q_tokens <= 0:
        raise ValueError(f"q_tokens must be positive, got {q_tokens}")
    if context_window <= 0:
        raise ValueError(f"context_window must be positive, got {context_window}")
    if not (0.0 < truncation_ratio < 1.0):
        raise ValueError(
            f"truncation_ratio must be in (0, 1), got {truncation_ratio}"
        )

    q = min(q_tokens, context_window)
    dropped = q_tokens - q
    history = history_tokens
    cut = max(1, int(context_window * truncation_ratio))
    while history > 0 and history + q > context_window:
        step = min(history, cut)
        history -= step
        dropped += step
    return TruncationOutcome(
        history_tokens=history, q_tokens=q, dropped_tokens=dropped
    )


class TurnPlan(NamedTuple):
    """One turn's KV reuse, decided by :func:`plan_turn`.  ``loads`` holds
    ``(lookup, n_tokens)`` pairs, tail first, each read from the tier its
    lookup reported; ``cold`` is the outcome had nothing been reusable."""

    outcome: TurnOutcome
    reused: int
    shared: int
    new: int
    loads: tuple[tuple[LookupResult, int], ...]
    drop_tail: bool
    cold: TurnOutcome

    def fallback(self) -> TurnPlan:
        """The recompute plan after a load failed: a tail hit degrades
        to ``FALLBACK_RECOMPUTE``, a shared-prefix-only hit to ``cold``."""
        outcome = (
            self.cold
            if self.outcome is TurnOutcome.HIT_SHARED
            else TurnOutcome.FALLBACK_RECOMPUTE
        )
        prompt = self.reused + self.new
        return TurnPlan(outcome, 0, 0, prompt, (), self.drop_tail, self.cold)


def plan_turn(
    history: int,
    prompt: int,
    tail: LookupResult,
    prefix: LookupResult | None,
    *,
    first_turn: bool,
    failover: bool,
) -> TurnPlan:
    """Decide one turn's KV reuse from values alone (Sections 3.2-3.4).

    ``history`` and ``prompt`` are what :func:`apply_context_window` kept;
    ``tail`` and ``prefix`` are the lookups of the session's segments: its
    tail, and the shared prefix it reads (None for a session without one).
    A lookup that was not made is a ``MISS``.  One rule covers every
    reuse: of the ``available`` tokens (the prompt on turn 0, the kept
    history after), ``reused = min(tail + prefix, available)``, of which
    the prefix supplies ``min(prefix, reused)``.  A tail whose prefix is
    gone is unreadable (KV reads prefix-first), so it is dropped.
    """
    available = prompt if first_turn else history
    cold = TurnOutcome.FIRST_TURN if first_turn else TurnOutcome.MISS
    if tail.status is LookupStatus.MISS_CORRUPT or (failover and not first_turn):
        # The KV died with a crashed replica, or failed its checksum and
        # was dropped: the history recomputes in full.
        cold = TurnOutcome.FALLBACK_RECOMPUTE
    own = tail.hit
    drop = own and prefix is not None and not prefix.hit
    if drop:
        own = False
    extra = prefix.n_tokens if prefix is not None and prefix.hit else 0
    reused = min((tail.n_tokens if own else 0) + extra, available)
    shared_hit = min(extra, reused)
    loads: tuple[tuple[LookupResult, int], ...] = ()
    outcome = TurnOutcome.HIT_SHARED if shared_hit else cold
    if own:
        outcome = OUTCOME_OF_LOOKUP[tail.status]
        loads = ((tail, reused - shared_hit),)
    if prefix is not None and shared_hit:
        loads += ((prefix, shared_hit),)
    return TurnPlan(outcome, reused, shared_hit, prompt - reused, loads, drop, cold)


def clamp_decode_tokens(
    prompt_tokens: int, a_tokens: int, context_window: int
) -> int:
    """Response tokens the engine can actually generate this turn.

    Generation cannot extend the context past the window; at least one
    token is always produced (the model emits *something* before any
    stopping logic applies).
    """
    if prompt_tokens <= 0:
        raise ValueError(f"prompt_tokens must be positive, got {prompt_tokens}")
    if a_tokens <= 0:
        raise ValueError(f"a_tokens must be positive, got {a_tokens}")
    room = context_window - prompt_tokens
    return max(1, min(a_tokens, room))
