"""Conversation session state tracked by the serving engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..workload.trace import Conversation

if TYPE_CHECKING:
    from .continuations import NextTurnTimer


@dataclass(slots=True)
class SessionState:
    """Mutable per-session serving state.

    ``history_tokens`` is the session context visible to the *next* turn —
    all question/answer tokens so far, minus anything removed by context-
    window truncation.  It equals the number of tokens whose KV cache the
    engine would reuse on a perfect cache hit.
    """

    conversation: Conversation
    next_turn: int = 0
    history_tokens: int = 0
    #: Content hash of the conversation's shared prefix, computed lazily
    #: by the engine on the first prefill of a prefix-bearing session.
    shared_hash: str | None = None
    #: True once the session has *diverged* from its shared prefix
    #: (context-window truncation rewrote the history): its KV no longer
    #: starts with the shared block, so sharing is off for good —
    #: histories only ever append, truncation is the only divergence
    #: point, and divergence is sticky.
    shared_detached: bool = False
    #: The session's reusable think-time timer (at most one is pending per
    #: session), created at the first turn completion and rescheduled for
    #: every later gap.  Excluded from comparison/repr: scheduling plumbing,
    #: not conversation state.
    timer: "NextTurnTimer | None" = field(default=None, compare=False, repr=False)

    @property
    def session_id(self) -> int:
        return self.conversation.session_id

    @property
    def finished(self) -> bool:
        return self.next_turn >= self.conversation.n_turns

    def record_turn_served(self, prompt_tokens: int, generated_tokens: int) -> None:
        """Advance past the current turn.

        Args:
            prompt_tokens: context length after prefill (history after any
                truncation plus the new question tokens).
            generated_tokens: response tokens actually decoded.
        """
        if self.finished:
            raise RuntimeError(
                f"session {self.session_id} has no turns left to serve"
            )
        self.history_tokens = prompt_tokens + generated_tokens
        self.next_turn += 1

    def record_truncation(self, dropped_tokens: int) -> None:
        if dropped_tokens < 0:
            raise ValueError(f"dropped_tokens must be >= 0, got {dropped_tokens}")
        if dropped_tokens:
            self.history_tokens -= dropped_tokens
            if self.history_tokens < 0:
                raise RuntimeError("truncated more history than the session has")
