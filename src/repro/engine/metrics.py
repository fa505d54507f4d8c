"""Serving metrics: per-turn records and run-level aggregation.

Definitions follow the paper's evaluation (Section 4.2):

* **Cache hit rate** — fraction of *lookups* (turns with history; first
  turns have nothing to look up) served from AttentionStore, split into
  DRAM and disk hits.
* **TTFT** — prefill execution time of a turn: KV loading (as overlapped)
  plus computing the new tokens, i.e. how long the user waits for the
  first output token once the job is scheduled.  Queueing delay is
  recorded separately.
* **Prefill throughput** — prompt tokens (historical + new, since reused
  history counts as processed) per second of prefill GPU time.
* **GPU time** — GPU busy seconds, decomposed into prefill, decode and
  save blocking.

Aggregates are computed over the turns after the warm-up prefix, matching
the paper's "warm up with the first 10K turns, evaluate the following 42K".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

from ..store.attention_store import LookupStatus
from .streaming import LogHistogramQuantile


class TurnOutcome(str, Enum):
    """How a turn's historical KV was obtained."""

    FIRST_TURN = "first-turn"  # no history: nothing to look up
    HIT_HBM = "hit-hbm"
    HIT_DRAM = "hit-dram"
    HIT_DISK = "hit-disk"
    #: The session's *private* history missed (or there was none beyond
    #: the prefix) but the cross-session shared prefix block hit; the
    #: reused tokens came from the content-addressed sharing index.
    HIT_SHARED = "hit-shared"
    MISS = "miss"  # history existed but had to be recomputed
    # A cached history existed but could not be used — corrupt at lookup,
    # or its KV load failed past the retry budget — so the engine fell
    # back to full-recompute prefill (graceful degradation toward RE).
    FALLBACK_RECOMPUTE = "fallback-recompute"

    @property
    def is_hit(self) -> bool:
        return self in (self.HIT_HBM, self.HIT_DRAM, self.HIT_DISK, self.HIT_SHARED)


#: The outcome of a turn whose private store lookup returned each status.
OUTCOME_OF_LOOKUP = {
    LookupStatus.HIT_HBM: TurnOutcome.HIT_HBM,
    LookupStatus.HIT_DRAM: TurnOutcome.HIT_DRAM,
    LookupStatus.HIT_DISK: TurnOutcome.HIT_DISK,
    LookupStatus.MISS: TurnOutcome.MISS,
    LookupStatus.MISS_CORRUPT: TurnOutcome.FALLBACK_RECOMPUTE,
}


@dataclass(slots=True)
class TurnRecord:
    """Everything measured about one served turn."""

    session_id: int
    turn_index: int
    global_turn: int
    outcome: TurnOutcome
    arrival_time: float
    prefill_start: float
    prompt_tokens: int
    new_tokens: int  # tokens actually prefilled (computed)
    reused_tokens: int  # tokens loaded from AttentionStore
    generated_tokens: int
    prefill_gpu_time: float
    decode_gpu_share: float = 0.0
    save_block_time: float = 0.0
    completion_time: float = 0.0
    dropped_tokens: int = 0  # context-window truncation this turn
    #: Of ``reused_tokens``, how many came from a cross-session shared
    #: prefix block rather than the session's private cache.
    shared_hit_tokens: int = 0
    in_eval_window: bool = True

    @property
    def ttft(self) -> float:
        """Time to first token: the prefill's execution time."""
        return self.prefill_gpu_time

    @property
    def queue_delay(self) -> float:
        return self.prefill_start - self.arrival_time

    @property
    def gpu_time(self) -> float:
        return self.prefill_gpu_time + self.decode_gpu_share + self.save_block_time


@dataclass(frozen=True, slots=True)
class RunSummary:
    """Aggregated results of one serving run (over the evaluation window,
    except where noted)."""

    n_turns: int
    n_lookups: int
    hits_dram: int
    hits_disk: int
    hits_hbm: int
    #: Turns served from a cross-session shared prefix block when the
    #: private cache had nothing (or nothing beyond the prefix).
    hits_shared: int
    misses: int
    #: Turns that fell back to full recompute because a cached history
    #: could not be used (corruption, failed KV load).  Counted in
    #: ``n_lookups`` (they degrade the hit rate) but kept separate from
    #: plain capacity misses.
    fallbacks: int
    mean_ttft: float
    p95_ttft: float
    mean_queue_delay: float
    prompt_tokens_total: int
    new_tokens_total: int
    reused_tokens_total: int
    #: Of ``reused_tokens_total``, tokens loaded from shared prefix blocks.
    shared_reused_tokens_total: int
    generated_tokens_total: int
    prefill_gpu_time: float
    decode_gpu_time: float
    save_block_time: float
    overflow_dropped_tokens: int
    # Decode-stall statistics (time decoding jobs spent blocked behind a
    # prefill; whole run):
    max_decode_stall: float
    decode_stall_time: float
    # Whole-run figures (warm-up included), for cost accounting:
    total_gpu_busy_time: float
    makespan: float

    @property
    def hit_rate(self) -> float:
        """Overall AttentionStore hit rate over lookups."""
        if self.n_lookups == 0:
            return 0.0
        return (
            self.hits_dram + self.hits_disk + self.hits_hbm + self.hits_shared
        ) / self.n_lookups

    @property
    def dram_hit_rate(self) -> float:
        return self.hits_dram / self.n_lookups if self.n_lookups else 0.0

    @property
    def disk_hit_rate(self) -> float:
        return self.hits_disk / self.n_lookups if self.n_lookups else 0.0

    @property
    def gpu_time(self) -> float:
        """Eval-window GPU seconds (prefill + decode + save blocking)."""
        return self.prefill_gpu_time + self.decode_gpu_time + self.save_block_time

    @property
    def prefill_throughput(self) -> float:
        """Prompt tokens (incl. reused history) per prefill GPU second."""
        if self.prefill_gpu_time == 0:
            return 0.0
        return self.prompt_tokens_total / self.prefill_gpu_time


@dataclass(slots=True)
class EvalTotals:
    """Counts and sums over evaluation-window turns, named after the
    :class:`TurnRecord` fields they add up.

    Both collector modes fold records through :meth:`add` in recording
    order, so every float total is the same left-to-right ``+=`` in
    both; ``sum()`` would not match it, being compensated on CPython
    3.12 and later.
    """

    n_turns: int = 0
    outcomes: dict[TurnOutcome, int] = field(
        default_factory=lambda: dict.fromkeys(TurnOutcome, 0)
    )
    queue_delay: float = 0.0
    prompt_tokens: int = 0
    new_tokens: int = 0
    reused_tokens: int = 0
    shared_hit_tokens: int = 0
    generated_tokens: int = 0
    prefill_gpu_time: float = 0.0
    decode_gpu_share: float = 0.0
    save_block_time: float = 0.0
    dropped_tokens: int = 0

    def add(self, record: TurnRecord) -> None:
        self.n_turns += 1
        self.outcomes[record.outcome] += 1
        self.queue_delay += record.queue_delay
        self.prompt_tokens += record.prompt_tokens
        self.new_tokens += record.new_tokens
        self.reused_tokens += record.reused_tokens
        self.shared_hit_tokens += record.shared_hit_tokens
        self.generated_tokens += record.generated_tokens
        self.prefill_gpu_time += record.prefill_gpu_time
        self.decode_gpu_share += record.decode_gpu_share
        self.save_block_time += record.save_block_time
        self.dropped_tokens += record.dropped_tokens

    def merge(self, other: "EvalTotals") -> None:
        for outcome, count in other.outcomes.items():
            self.outcomes[outcome] += count
        for f in fields(self):
            if f.name != "outcomes":
                total = getattr(self, f.name) + getattr(other, f.name)
                setattr(self, f.name, total)


class MetricsCollector:
    """Accumulates :class:`TurnRecord` entries and summarises a run.

    Two modes:

    * **exact** (default) — every record is retained and ``summarise()``
      aggregates over the list.  O(turns) memory; p95 TTFT is exact.
    * **streaming** (``streaming=True``) — per-turn fields are folded into
      running sums and counters as they arrive and the record is *not*
      retained, so memory stays O(1) in the number of turns.  Every
      counter and sum in the resulting :class:`RunSummary` is
      bit-identical to exact mode (same values added in the same order);
      only ``p95_ttft`` is an estimate, from a log-spaced histogram with
      ≤0.5 % relative error (see
      :class:`~repro.engine.streaming.LogHistogramQuantile`).
    """

    def __init__(self, warmup_turns: int = 0, streaming: bool = False) -> None:
        if warmup_turns < 0:
            raise ValueError(f"warmup_turns must be >= 0, got {warmup_turns}")
        self.warmup_turns = warmup_turns
        self.streaming = streaming
        self.records: list[TurnRecord] = []
        self._gpu_busy_total = 0.0
        self._max_decode_stall = 0.0
        self._decode_stall_total = 0.0
        self._first_arrival: float | None = None
        self._last_completion = 0.0
        # Streaming mode folds eval-window turns in as they arrive.
        self._totals = EvalTotals()
        self._ttft_hist = LogHistogramQuantile()

    def record_turn(self, record: TurnRecord) -> None:
        record.in_eval_window = record.global_turn >= self.warmup_turns
        if self._first_arrival is None or record.arrival_time < self._first_arrival:
            self._first_arrival = record.arrival_time
        self._last_completion = max(self._last_completion, record.completion_time)
        if not self.streaming:
            self.records.append(record)
        elif record.in_eval_window:
            self._totals.add(record)
            self._ttft_hist.add(record.ttft)

    def record_turns(self, records: "list[TurnRecord]") -> None:
        """Record a decode chunk's completed turns, in order."""
        for record in records:
            self.record_turn(record)

    def record_gpu_busy(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._gpu_busy_total += seconds

    @classmethod
    def merged(cls, collectors: "list[MetricsCollector]") -> "MetricsCollector":
        """Pool several replicas' collectors into one cluster-level view.

        Records keep their per-replica ``in_eval_window`` flags (the warm-up
        prefix is defined over cluster-global turn numbers when replicas
        share a turn counter) and their per-replica recording order —
        deliberately *not* re-sorted, so a one-replica merge sums floats in
        exactly the order a standalone engine would (bit-identical results).
        """
        streaming_flags = {c.streaming for c in collectors}
        if len(streaming_flags) > 1:
            n_streaming = sum(1 for c in collectors if c.streaming)
            raise ValueError(
                "cannot merge streaming and exact collectors: got "
                f"{n_streaming} streaming and "
                f"{len(collectors) - n_streaming} exact of {len(collectors)} "
                "(construct every replica with the same streaming_metrics "
                "flag before pooling)"
            )
        streaming = bool(collectors) and collectors[0].streaming
        merged = cls(warmup_turns=0, streaming=streaming)
        for collector in collectors:
            merged.records.extend(collector.records)
            merged._totals.merge(collector._totals)
            merged._ttft_hist.merge(collector._ttft_hist)
            merged._gpu_busy_total += collector._gpu_busy_total
            merged._max_decode_stall = max(
                merged._max_decode_stall, collector._max_decode_stall
            )
            merged._decode_stall_total += collector._decode_stall_total
            if collector._first_arrival is not None:
                if (
                    merged._first_arrival is None
                    or collector._first_arrival < merged._first_arrival
                ):
                    merged._first_arrival = collector._first_arrival
            merged._last_completion = max(
                merged._last_completion, collector._last_completion
            )
        return merged

    def record_decode_stall(self, seconds: float) -> None:
        """Time the decoding batch spent blocked behind a prefill."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._max_decode_stall = max(self._max_decode_stall, seconds)
        self._decode_stall_total += seconds

    def summarise(self) -> RunSummary:
        """Aggregate over the evaluation window."""
        if self.streaming:
            totals = self._totals
            p95_ttft = self._ttft_hist.quantile(0.95)
        else:
            totals = EvalTotals()
            ttfts: list[float] = []
            for record in self.records:
                if record.in_eval_window:
                    totals.add(record)
                    ttfts.append(record.ttft)
            ttfts.sort()
            rank = min(len(ttfts) - 1, int(0.95 * len(ttfts)))
            p95_ttft = ttfts[rank] if ttfts else 0.0
        n = totals.n_turns
        counts = totals.outcomes
        return RunSummary(
            n_turns=n,
            n_lookups=n - counts[TurnOutcome.FIRST_TURN],
            hits_dram=counts[TurnOutcome.HIT_DRAM],
            hits_disk=counts[TurnOutcome.HIT_DISK],
            hits_hbm=counts[TurnOutcome.HIT_HBM],
            hits_shared=counts[TurnOutcome.HIT_SHARED],
            misses=counts[TurnOutcome.MISS],
            fallbacks=counts[TurnOutcome.FALLBACK_RECOMPUTE],
            mean_ttft=totals.prefill_gpu_time / n if n else 0.0,
            p95_ttft=p95_ttft,
            mean_queue_delay=totals.queue_delay / n if n else 0.0,
            prompt_tokens_total=totals.prompt_tokens,
            new_tokens_total=totals.new_tokens,
            reused_tokens_total=totals.reused_tokens,
            shared_reused_tokens_total=totals.shared_hit_tokens,
            generated_tokens_total=totals.generated_tokens,
            prefill_gpu_time=totals.prefill_gpu_time,
            decode_gpu_time=totals.decode_gpu_share,
            save_block_time=totals.save_block_time,
            overflow_dropped_tokens=totals.dropped_tokens,
            max_decode_stall=self._max_decode_stall,
            decode_stall_time=self._decode_stall_total,
            total_gpu_busy_time=self._gpu_busy_total,
            makespan=(
                self._last_completion - self._first_arrival
                if self._first_arrival is not None
                else 0.0
            ),
        )
