"""Streaming metrics agree with the exact collector.

The contract (DESIGN.md Section 8): every counter and float sum in
:class:`RunSummary` is *bit-identical* between modes — the streaming
collector adds the same values in the same order — and only ``p95_ttft``
is an estimate, bounded by the log-histogram's documented relative error.
"""

import dataclasses
import random

import pytest

from repro.config import EngineConfig, HardwareConfig, StoreConfig
from repro.engine import ServingEngine
from repro.engine.metrics import MetricsCollector, TurnOutcome, TurnRecord
from repro.engine.streaming import LogHistogramQuantile
from repro.models import get_model
from repro.workload import WorkloadSpec, generate_trace

P95_FIELD = "p95_ttft"


def _random_record(rng: random.Random, global_turn: int) -> TurnRecord:
    ttft = rng.lognormvariate(-2.0, 1.5)
    arrival = rng.uniform(0, 1000)
    return TurnRecord(
        session_id=rng.randrange(100),
        turn_index=rng.randrange(10),
        global_turn=global_turn,
        outcome=rng.choice(list(TurnOutcome)),
        arrival_time=arrival,
        prefill_start=arrival + rng.uniform(0, 5),
        prompt_tokens=rng.randrange(1, 4000),
        new_tokens=rng.randrange(1, 500),
        reused_tokens=rng.randrange(0, 3500),
        generated_tokens=rng.randrange(1, 500),
        prefill_gpu_time=ttft,
        decode_gpu_share=rng.uniform(0, 2),
        save_block_time=rng.uniform(0, 0.05),
        completion_time=arrival + rng.uniform(5, 60),
        dropped_tokens=rng.randrange(0, 100),
    )


def _assert_summaries_agree(exact, streaming, rel_tol):
    for field in dataclasses.fields(exact):
        exact_value = getattr(exact, field.name)
        streaming_value = getattr(streaming, field.name)
        if field.name == P95_FIELD:
            assert streaming_value == pytest.approx(exact_value, rel=rel_tol)
        else:
            # Bit-identical: same values summed in the same order.
            assert streaming_value == exact_value, field.name


class TestStreamingCollector:
    @pytest.mark.parametrize("warmup", [0, 137])
    def test_agrees_with_exact_on_synthetic_records(self, warmup):
        rng = random.Random(7)
        records = [_random_record(rng, i) for i in range(2000)]
        exact = MetricsCollector(warmup_turns=warmup)
        stream = MetricsCollector(warmup_turns=warmup, streaming=True)
        for record in records:
            exact.record_turn(dataclasses.replace(record))
            stream.record_turn(dataclasses.replace(record))
        exact.record_gpu_busy(123.4)
        stream.record_gpu_busy(123.4)
        exact.record_decode_stall(0.5)
        stream.record_decode_stall(0.5)
        _assert_summaries_agree(
            exact.summarise(),
            stream.summarise(),
            rel_tol=stream._ttft_hist.relative_error,
        )

    def test_float_sums_are_plain_left_to_right(self):
        """Both modes add in recording order with ``+=``: 1e16 absorbs each
        1.0 (a compensated ``sum()`` would keep them, giving 1e16 + 2)."""
        rng = random.Random(5)
        records = [_random_record(rng, i) for i in range(3)]
        for record, ttft in zip(records, (1e16, 1.0, 1.0)):
            record.prefill_gpu_time = ttft
        for streaming in (False, True):
            collector = MetricsCollector(streaming=streaming)
            collector.record_turns([dataclasses.replace(r) for r in records])
            assert collector.summarise().mean_ttft == 1e16 / 3, streaming

    def test_empty_run(self):
        exact = MetricsCollector().summarise()
        stream = MetricsCollector(streaming=True).summarise()
        assert exact == stream

    def test_streaming_retains_no_records(self):
        stream = MetricsCollector(streaming=True)
        rng = random.Random(1)
        for i in range(500):
            stream.record_turn(_random_record(rng, i))
        assert stream.records == []
        assert stream.summarise().n_turns == 500

    def test_agrees_on_real_serving_run(self):
        model = get_model("llama-13b")
        trace = generate_trace(WorkloadSpec(n_sessions=60, seed=11))

        def run(streaming: bool):
            engine = ServingEngine(
                model,
                hardware=HardwareConfig().for_model(model),
                engine_config=EngineConfig(batch_size=model.default_batch_size),
                store_config=StoreConfig(),
                warmup_turns=40,
                streaming_metrics=streaming,
            )
            return engine.run(trace)

        exact = run(False)
        stream = run(True)
        # ISSUE tolerance: p95 within 2 %; the histogram's own bound is
        # tighter (~0.5 %).
        _assert_summaries_agree(exact.summary, stream.summary, rel_tol=0.02)
        assert stream.store_stats == exact.store_stats
        assert stream.events_processed == exact.events_processed

    def test_merged_streaming_collectors(self):
        rng = random.Random(3)
        parts = []
        all_records = []
        for _ in range(3):
            collector = MetricsCollector(streaming=True)
            for i in range(400):
                record = _random_record(rng, i)
                all_records.append(dataclasses.replace(record))
                collector.record_turn(record)
            collector.record_gpu_busy(10.0)
            parts.append(collector)
        merged = MetricsCollector.merged(parts).summarise()
        reference = MetricsCollector(streaming=True)
        for record in all_records:
            reference.record_turn(record)
        reference.record_gpu_busy(30.0)
        expected = reference.summarise()
        assert merged.n_turns == expected.n_turns
        assert merged.prompt_tokens_total == expected.prompt_tokens_total
        # Histogram merge is exact (bin counts add).
        assert merged.p95_ttft == expected.p95_ttft
        assert merged.mean_ttft == pytest.approx(expected.mean_ttft)

    def test_merging_mixed_modes_rejected(self):
        with pytest.raises(ValueError, match="streaming"):
            MetricsCollector.merged(
                [MetricsCollector(), MetricsCollector(streaming=True)]
            )

    def test_mixed_mode_error_names_the_split(self):
        """The message must be actionable: how many of each mode, and how
        to fix it (same streaming_metrics flag everywhere)."""
        with pytest.raises(
            ValueError,
            match=r"1 streaming and 2 exact of 3.*streaming_metrics",
        ):
            MetricsCollector.merged(
                [
                    MetricsCollector(),
                    MetricsCollector(streaming=True),
                    MetricsCollector(),
                ]
            )


class TestLogHistogramQuantile:
    def test_quantile_within_documented_error(self):
        rng = random.Random(5)
        hist = LogHistogramQuantile()
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(20_000)]
        for v in values:
            hist.add(v)
        ordered = sorted(values)
        n = len(ordered)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = ordered[min(n - 1, int(q * n))]
            assert hist.quantile(q) == pytest.approx(
                exact, rel=hist.relative_error
            )

    def test_merge_equals_single_pass(self):
        rng = random.Random(9)
        values = [rng.expovariate(1.0) for _ in range(5000)]
        whole = LogHistogramQuantile()
        left, right = LogHistogramQuantile(), LogHistogramQuantile()
        for i, v in enumerate(values):
            whole.add(v)
            (left if i % 2 else right).add(v)
        left.merge(right)
        assert len(left) == len(whole)
        for q in (0.1, 0.5, 0.95):
            assert left.quantile(q) == whole.quantile(q)

    def test_underflow_bin(self):
        hist = LogHistogramQuantile(min_value=1e-6)
        hist.add(0.0)
        hist.add(1e-9)
        assert hist.quantile(0.5) == 1e-6

    def test_memory_stays_bounded(self):
        rng = random.Random(2)
        hist = LogHistogramQuantile()
        for _ in range(50_000):
            hist.add(rng.lognormvariate(-2.0, 1.5))
        # Occupied bins are bounded by the support's log-width, not N.
        assert len(hist._counts) < 3000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LogHistogramQuantile(min_value=0.0)
        with pytest.raises(ValueError):
            LogHistogramQuantile(growth=1.0)
        with pytest.raises(ValueError):
            LogHistogramQuantile().quantile(1.5)
