"""Conversation trace data model.

A *trace* is the workload input to the serving simulator: a set of
conversation sessions, each with an arrival time and a sequence of turns.
Each turn carries the number of user-prompt tokens (``q_tokens``), the
number of response tokens the model will generate (``a_tokens``) and the
user *think time* — the delay between receiving the previous response and
sending this turn's message.  Turn arrival times therefore depend on service
completion and are computed by the engine, not stored in the trace.

Traces serialise to and from JSON so that generated workloads can be saved
and replayed exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class Turn:
    """One conversation turn: a user message and the model's response.

    Attributes:
        q_tokens: tokens in the user's new message.
        a_tokens: tokens in the model's response.
        think_time: seconds between the previous response finishing and this
            turn's request being issued (0 for the first turn).
    """

    q_tokens: int
    a_tokens: int
    think_time: float = 0.0

    def __post_init__(self) -> None:
        if self.q_tokens <= 0:
            raise ValueError(f"q_tokens must be positive, got {self.q_tokens}")
        if self.a_tokens <= 0:
            raise ValueError(f"a_tokens must be positive, got {self.a_tokens}")
        if not 0.0 <= self.think_time < inf:
            raise ValueError(
                f"think_time must be finite and >= 0, got {self.think_time}"
            )

    @property
    def total_tokens(self) -> int:
        return self.q_tokens + self.a_tokens


@dataclass(frozen=True, slots=True)
class Conversation:
    """A multi-turn conversation session.

    Attributes:
        session_id: unique identifier within the trace.
        arrival_time: simulated wall-clock second when turn 0 arrives.
        turns: the conversation's turns in order.
        shared_prefix_id: which fleet-shared prefix template the first
            turn starts with (meaningful only with a positive
            ``shared_prefix_tokens``).
        shared_prefix_tokens: leading tokens of turn 0's question that are
            identical across every session using the same template —
            already *included* in ``turns[0].q_tokens``, never added on
            top.  0 means the session shares nothing.
    """

    session_id: int
    arrival_time: float
    turns: tuple[Turn, ...]
    shared_prefix_id: int = 0
    shared_prefix_tokens: int = 0

    def __post_init__(self) -> None:
        if self.session_id < 0:
            # Negative ids name the store's shared-prefix blocks.
            raise ValueError(f"session_id must be >= 0, got {self.session_id}")
        if not 0.0 <= self.arrival_time < inf:
            raise ValueError(
                f"arrival_time must be finite and >= 0, got {self.arrival_time}"
            )
        if not self.turns:
            raise ValueError("a conversation needs at least one turn")
        if self.shared_prefix_id < 0:
            raise ValueError(
                f"shared_prefix_id must be >= 0, got {self.shared_prefix_id}"
            )
        if self.shared_prefix_tokens < 0:
            raise ValueError(
                "shared_prefix_tokens must be >= 0, got "
                f"{self.shared_prefix_tokens}"
            )
        if 0 < self.shared_prefix_tokens and (
            self.shared_prefix_tokens >= self.turns[0].q_tokens
        ):
            raise ValueError(
                f"shared_prefix_tokens {self.shared_prefix_tokens} must leave "
                f"at least one private token in turn 0's "
                f"{self.turns[0].q_tokens}-token question"
            )

    @property
    def n_turns(self) -> int:
        return len(self.turns)

    @property
    def is_multi_turn(self) -> bool:
        return self.n_turns > 1

    @property
    def total_tokens(self) -> int:
        """Session length: all question and answer tokens across all turns."""
        return sum(t.total_tokens for t in self.turns)

    def history_tokens_before(self, turn_index: int) -> int:
        """Tokens accumulated in the session before ``turn_index`` starts."""
        if not (0 <= turn_index < self.n_turns):
            raise IndexError(
                f"turn_index {turn_index} out of range for {self.n_turns} turns"
            )
        return sum(t.total_tokens for t in self.turns[:turn_index])


@dataclass
class Trace:
    """A full workload: conversations sorted by arrival time."""

    conversations: list[Conversation] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.conversations.sort(key=lambda c: (c.arrival_time, c.session_id))
        seen: set[int] = set()
        for conv in self.conversations:
            if conv.session_id in seen:
                raise ValueError(f"duplicate session_id {conv.session_id}")
            seen.add(conv.session_id)

    def __len__(self) -> int:
        return len(self.conversations)

    def __iter__(self) -> Iterator[Conversation]:
        return iter(self.conversations)

    @property
    def n_turns_total(self) -> int:
        return sum(c.n_turns for c in self.conversations)

    @property
    def n_tokens_total(self) -> int:
        return sum(c.total_tokens for c in self.conversations)

    def to_json(self) -> str:
        """Serialise the trace to a JSON string."""
        conversations = []
        for c in self.conversations:
            entry: dict = {
                "session_id": c.session_id,
                "arrival_time": c.arrival_time,
                "turns": [
                    [t.q_tokens, t.a_tokens, t.think_time] for t in c.turns
                ],
            }
            if c.shared_prefix_tokens > 0:
                # Emitted only when set, so share-free traces serialise
                # byte-identically to the pre-sharing schema.
                entry["shared_prefix"] = [
                    c.shared_prefix_id,
                    c.shared_prefix_tokens,
                ]
            conversations.append(entry)
        payload = {"metadata": self.metadata, "conversations": conversations}
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse a trace previously produced by :meth:`to_json`.

        Raises ``ValueError`` naming the conversation index and the field
        for a missing field, a count that is not an ``int`` (``bool``
        included), a time that is not a number, or a value the data model
        rejects.
        """
        payload = json.loads(text)
        conversations = []
        for index, c in enumerate(payload["conversations"]):
            try:
                prefix_id, prefix_tokens = c.get("shared_prefix", (0, 0))
                conversations.append(
                    Conversation(
                        session_id=_int(c["session_id"], "session_id"),
                        arrival_time=_number(c["arrival_time"], "arrival_time"),
                        turns=tuple(
                            Turn(
                                _int(q, f"turn {t} q_tokens"),
                                _int(a, f"turn {t} a_tokens"),
                                _number(think, f"turn {t} think_time"),
                            )
                            for t, (q, a, think) in enumerate(c["turns"])
                        ),
                        shared_prefix_id=_int(prefix_id, "shared_prefix id"),
                        shared_prefix_tokens=_int(
                            prefix_tokens, "shared_prefix tokens"
                        ),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"conversation {index}: missing {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"conversation {index}: {exc}") from exc
        return cls(conversations=conversations, metadata=payload.get("metadata", {}))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.from_json(Path(path).read_text())


def _int(value: object, name: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an int, got {value!r}")


def _number(value: object, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be a number, got {value!r}")


def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Combine traces, re-numbering sessions to keep ids unique."""
    conversations: list[Conversation] = []
    next_id = 0
    for trace in traces:
        for conv in trace:
            conversations.append(
                Conversation(
                    session_id=next_id,
                    arrival_time=conv.arrival_time,
                    turns=conv.turns,
                    shared_prefix_id=conv.shared_prefix_id,
                    shared_prefix_tokens=conv.shared_prefix_tokens,
                )
            )
            next_id += 1
    return Trace(conversations=conversations)
