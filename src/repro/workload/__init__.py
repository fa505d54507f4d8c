"""Synthetic multi-turn conversation workloads (ShareGPT-like)."""

from .generator import generate_trace, stream_trace
from .spec import LognormalSpec, WorkloadSpec
from .stats import (
    TurnStats,
    fraction_multi_turn,
    mean_turns,
    per_turn_token_stats,
    repetition_fraction,
    session_length_percentiles,
    session_length_survival,
    turn_count_histogram,
)
from .trace import Conversation, Trace, Turn, merge_traces

__all__ = [
    "Conversation",
    "LognormalSpec",
    "Trace",
    "Turn",
    "TurnStats",
    "WorkloadSpec",
    "fraction_multi_turn",
    "generate_trace",
    "mean_turns",
    "merge_traces",
    "per_turn_token_stats",
    "repetition_fraction",
    "session_length_percentiles",
    "session_length_survival",
    "stream_trace",
    "turn_count_histogram",
]
