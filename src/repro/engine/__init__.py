"""The LLM serving engine: RE baseline and CachedAttention (CA)."""

from .batching import ActiveJob, BatchState
from .engine import RunResult, ServingEngine
from .metrics import MetricsCollector, RunSummary, TurnOutcome, TurnRecord
from .overlap import (
    async_save_blocking_time,
    layerwise_prefill_time,
    layerwise_prefill_time_reference,
    no_preload_prefill_time,
    overlap_exposure,
    perfect_overlap_buffer_layers,
    preload_speedup,
    sync_save_blocking_time,
)
from .queue import SchedulerQueue
from .request import TurnRequest
from .session import SessionState
from .truncation import TruncationOutcome, apply_context_window, clamp_decode_tokens

__all__ = [
    "ActiveJob",
    "BatchState",
    "MetricsCollector",
    "RunResult",
    "RunSummary",
    "SchedulerQueue",
    "ServingEngine",
    "SessionState",
    "TruncationOutcome",
    "TurnOutcome",
    "TurnRecord",
    "TurnRequest",
    "apply_context_window",
    "async_save_blocking_time",
    "clamp_decode_tokens",
    "layerwise_prefill_time",
    "layerwise_prefill_time_reference",
    "no_preload_prefill_time",
    "overlap_exposure",
    "perfect_overlap_buffer_layers",
    "preload_speedup",
    "sync_save_blocking_time",
]
