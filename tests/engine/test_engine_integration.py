"""End-to-end serving engine tests: RE vs CA behaviour on real traces."""

import pytest

from repro.config import (
    EngineConfig,
    EvictionPolicyName,
    HardwareConfig,
    ServingMode,
    StoreConfig,
    TruncationPolicyName,
)
from repro.engine import ServingEngine, TurnOutcome
from repro.models import GiB, TiB, get_model
from repro.workload import generate_trace
from repro.workload.trace import Conversation, Trace, Turn


def run(model_name="llama-13b", trace=None, engine_config=None, store_config=None,
        warmup=0):
    model = get_model(model_name)
    engine = ServingEngine(
        model,
        engine_config=engine_config or EngineConfig(batch_size=8),
        store_config=store_config,
        warmup_turns=warmup,
    )
    result = engine.run(trace)
    return engine, result


@pytest.fixture(scope="module")
def trace():
    return generate_trace(n_sessions=60, seed=21)


@pytest.fixture(scope="module")
def ca_run(trace):
    return run(trace=trace)


@pytest.fixture(scope="module")
def re_run(trace):
    return run(trace=trace, engine_config=EngineConfig.recompute_baseline(batch_size=8))


class TestCompletion:
    def test_all_turns_served(self, trace, ca_run):
        _, result = ca_run
        assert result.summary.n_turns == trace.n_turns_total

    def test_re_serves_all_turns_too(self, trace, re_run):
        _, result = re_run
        assert result.summary.n_turns == trace.n_turns_total

    def test_sessions_all_finished(self, ca_run):
        engine, _ = ca_run
        # A session leaves ``engine.sessions`` when its last turn completes.
        assert engine.sessions == {}

    def test_gpu_not_left_busy(self, ca_run):
        engine, _ = ca_run
        assert not engine._gpu_busy

    def test_queue_drained(self, ca_run):
        engine, _ = ca_run
        assert len(engine.queue) == 0
        assert len(engine.batch) == 0


class TestCachedAttentionBehaviour:
    def test_ca_hits_after_first_turn(self, ca_run):
        _, result = ca_run
        assert result.summary.hit_rate > 0.9

    def test_re_never_hits(self, re_run):
        _, result = re_run
        s = result.summary
        assert s.hits_dram == s.hits_disk == s.hits_hbm == 0

    def test_ca_reuses_tokens(self, ca_run):
        _, result = ca_run
        assert result.summary.reused_tokens_total > 0

    def test_re_recomputes_everything(self, re_run):
        _, result = re_run
        s = result.summary
        assert s.reused_tokens_total == 0
        assert s.new_tokens_total == s.prompt_tokens_total

    def test_ca_prefills_fewer_tokens(self, ca_run, re_run):
        assert (
            ca_run[1].summary.new_tokens_total
            < 0.35 * re_run[1].summary.new_tokens_total
        )

    def test_ca_faster_ttft(self, ca_run, re_run):
        assert ca_run[1].summary.mean_ttft < re_run[1].summary.mean_ttft

    def test_ca_higher_prefill_throughput(self, ca_run, re_run):
        assert (
            ca_run[1].summary.prefill_throughput
            > 1.5 * re_run[1].summary.prefill_throughput
        )

    def test_ca_less_gpu_time(self, ca_run, re_run):
        assert ca_run[1].summary.gpu_time < re_run[1].summary.gpu_time

    def test_first_turns_counted_separately(self, trace, ca_run):
        _, result = ca_run
        s = result.summary
        assert s.n_lookups == trace.n_turns_total - len(trace)

    def test_decode_work_similar(self, ca_run, re_run):
        """Decoding is the same workload in both modes."""
        ca_dec = ca_run[1].summary.decode_gpu_time
        re_dec = re_run[1].summary.decode_gpu_time
        assert ca_dec == pytest.approx(re_dec, rel=0.15)


class TestConsistencyInvariants:
    def test_prompt_token_conservation(self, ca_run):
        _, result = ca_run
        s = result.summary
        assert s.prompt_tokens_total == s.new_tokens_total + s.reused_tokens_total

    def test_ttft_equals_prefill_gpu_per_turn(self, ca_run):
        engine, _ = ca_run
        for record in engine.metrics.records:
            assert record.ttft == record.prefill_gpu_time

    def test_completion_after_prefill(self, ca_run):
        engine, _ = ca_run
        for record in engine.metrics.records:
            assert record.completion_time >= record.prefill_start + record.ttft

    def test_context_window_respected(self, ca_run):
        engine, _ = ca_run
        window = engine.model.context_window
        for record in engine.metrics.records:
            assert record.prompt_tokens <= window

    def test_gpu_busy_at_least_component_sum(self, ca_run):
        _, result = ca_run
        s = result.summary
        assert s.total_gpu_busy_time >= s.gpu_time * 0.99


class TestWarmup:
    def test_warmup_shrinks_eval_window(self, trace):
        _, result = run(trace=trace, warmup=50)
        assert result.summary.n_turns == trace.n_turns_total - 50


class TestTruncationModes:
    @pytest.fixture(scope="class")
    def overflow_trace(self):
        """Long sessions on a small-window model force overflow."""
        turns = tuple(
            Turn(q_tokens=300, a_tokens=400, think_time=0.0 if i == 0 else 5.0)
            for i in range(8)
        )
        convs = [Conversation(i, float(i), turns) for i in range(10)]
        return Trace(conversations=convs)

    def test_overflow_happens(self, overflow_trace):
        _, result = run(model_name="llama-65b", trace=overflow_trace)
        assert result.summary.overflow_dropped_tokens > 0

    def test_decoupled_truncation_keeps_hits(self, overflow_trace):
        _, decoupled = run(model_name="llama-65b", trace=overflow_trace)
        cfg = EngineConfig(
            batch_size=8, truncation=TruncationPolicyName.KV_EMBEDDED
        )
        _, embedded = run(
            model_name="llama-65b", trace=overflow_trace, engine_config=cfg
        )
        # Figure 22: embedded PE (OF) loses hits to invalidation.
        assert decoupled.summary.hit_rate > embedded.summary.hit_rate

    def test_embedded_invalidations_recorded(self, overflow_trace):
        cfg = EngineConfig(
            batch_size=8, truncation=TruncationPolicyName.KV_EMBEDDED
        )
        _, result = run(
            model_name="llama-65b", trace=overflow_trace, engine_config=cfg
        )
        assert result.store_stats.invalidated > 0


class TestStorePressure:
    def test_small_store_evicts_and_misses(self, trace):
        store = StoreConfig(dram_bytes=4 * GiB, ssd_bytes=16 * GiB)
        _, result = run(trace=trace, store_config=store)
        assert result.store_stats.evicted_out > 0
        assert result.summary.hit_rate < 1.0

    def test_bigger_store_hits_more(self, trace):
        small = StoreConfig(dram_bytes=4 * GiB, ssd_bytes=16 * GiB)
        large = StoreConfig(dram_bytes=64 * GiB, ssd_bytes=2 * TiB)
        _, r_small = run(trace=trace, store_config=small)
        _, r_large = run(trace=trace, store_config=large)
        assert r_large.summary.hit_rate >= r_small.summary.hit_rate

    def test_scheduler_aware_beats_lru_under_pressure(self, trace):
        """Figure 21's core claim at miniature scale."""
        base = dict(dram_bytes=4 * GiB, ssd_bytes=24 * GiB)
        _, sa = run(
            trace=trace,
            store_config=StoreConfig(
                policy=EvictionPolicyName.SCHEDULER_AWARE, **base
            ),
        )
        _, lru = run(
            trace=trace,
            store_config=StoreConfig(
                policy=EvictionPolicyName.LRU, enable_prefetch=False, **base
            ),
        )
        assert sa.summary.hit_rate >= lru.summary.hit_rate
        assert sa.summary.dram_hit_rate > lru.summary.dram_hit_rate


class TestAsyncSaveAblation:
    def test_sync_save_blocks_more(self, trace):
        async_cfg = EngineConfig(batch_size=8, enable_async_save=True)
        sync_cfg = EngineConfig(batch_size=8, enable_async_save=False)
        _, a = run(trace=trace, engine_config=async_cfg)
        _, s = run(trace=trace, engine_config=sync_cfg)
        assert a.summary.save_block_time < s.summary.save_block_time
        assert s.summary.save_block_time > 0


class TestPreloadAblation:
    def test_preload_cuts_hit_ttft(self, trace):
        on = EngineConfig(batch_size=8, enable_preload=True)
        off = EngineConfig(batch_size=8, enable_preload=False)
        _, r_on = run(trace=trace, engine_config=on)
        _, r_off = run(trace=trace, engine_config=off)
        assert r_on.summary.mean_ttft < r_off.summary.mean_ttft


class TestHBMOnlyCaching:
    def test_hbm_only_has_near_zero_hits(self, trace):
        """Figure 24: a 10 GB HBM cache is useless at session scale."""
        store = StoreConfig(
            dram_bytes=0, ssd_bytes=0, hbm_cache_bytes=10 * GiB
        )
        _, result = run(trace=trace, store_config=store)
        assert result.summary.hit_rate < 0.35

    def test_hbm_dram_ssd_ladder(self, trace):
        hbm_only = StoreConfig(dram_bytes=0, ssd_bytes=0, hbm_cache_bytes=10 * GiB)
        hbm_dram = StoreConfig(
            dram_bytes=32 * GiB, ssd_bytes=0, hbm_cache_bytes=10 * GiB
        )
        full = StoreConfig(
            dram_bytes=32 * GiB, ssd_bytes=2 * TiB, hbm_cache_bytes=10 * GiB
        )
        rates = []
        for cfg in (hbm_only, hbm_dram, full):
            _, result = run(trace=trace, store_config=cfg)
            rates.append(result.summary.hit_rate)
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > rates[0]
