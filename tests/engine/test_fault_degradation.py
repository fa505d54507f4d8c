"""Engine-level graceful degradation under injected faults.

The key guarantees: corrupt or lost KV is never served (it becomes a
recompute fallback), an inert FaultConfig is bit-identical to no fault
config at all, and chaos-level fault profiles complete without error.
"""

import dataclasses

import pytest

from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine, TurnOutcome
from repro.faults import FaultConfig, TierLossEvent, fault_profile
from repro.models import get_model
from repro.workload import generate_trace


def run(trace, fault_config=None, **engine_kwargs):
    engine = ServingEngine(
        get_model("llama-13b"),
        engine_config=EngineConfig(batch_size=8),
        fault_config=fault_config,
        **engine_kwargs,
    )
    return engine, engine.run(trace)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(n_sessions=40, seed=17)


class TestCorruptionNeverServed:
    def test_all_corrupt_means_all_fallbacks(self, trace):
        engine, result = run(
            trace, FaultConfig(seed=1, corruption_rate=1.0)
        )
        s = result.summary
        assert s.n_turns == trace.n_turns_total  # every turn still served
        assert s.hits_dram == s.hits_disk == 0
        assert s.reused_tokens_total == 0
        assert s.fallbacks > 0
        assert s.fallbacks + s.misses == s.n_lookups
        assert engine.store.stats.corrupt_misses == s.fallbacks
        fallback_turns = [
            t
            for t in engine.metrics.records
            if t.outcome is TurnOutcome.FALLBACK_RECOMPUTE
        ]
        assert len(fallback_turns) >= s.fallbacks
        assert all(t.reused_tokens == 0 for t in fallback_turns)

    def test_all_lost_means_plain_misses(self, trace):
        engine, result = run(trace, FaultConfig(seed=1, loss_rate=1.0))
        s = result.summary
        assert s.hits_dram == s.hits_disk == 0
        assert s.reused_tokens_total == 0
        assert engine.store.stats.lost_items > 0


class TestInertConfigIsBitIdentical:
    def test_zero_rate_config_matches_no_config(self, trace):
        engine_a, result_a = run(trace, fault_config=None)
        engine_b, result_b = run(trace, FaultConfig(seed=99))
        assert dataclasses.asdict(result_a.summary) == dataclasses.asdict(
            result_b.summary
        )
        assert engine_a.ssd.bytes_moved == engine_b.ssd.bytes_moved
        assert engine_a.pcie_h2d.bytes_moved == engine_b.pcie_h2d.bytes_moved
        assert engine_a.pcie_d2h.bytes_moved == engine_b.pcie_d2h.bytes_moved
        assert engine_b.store.faults is None  # inert config builds no injector


class TestChaosCompletes:
    def test_chaos_profile_serves_every_turn(self, trace):
        engine, result = run(trace, fault_profile("chaos", seed=3))
        s = result.summary
        assert s.n_turns == trace.n_turns_total
        assert s.mean_ttft > 0
        stats = engine.store.stats
        assert stats.transfer_faults + stats.corrupt_misses + stats.lost_items > 0
        engine.store.check_invariants()

    def test_chaos_degrades_but_not_below_recompute_semantics(self, trace):
        _, faulty = run(trace, fault_profile("chaos", seed=3))
        _, clean = run(trace)
        assert faulty.summary.hit_rate <= clean.summary.hit_rate + 1e-9
        assert faulty.summary.reused_tokens_total <= clean.summary.reused_tokens_total


class TestTierLoss:
    def test_scheduled_dram_loss_drops_items(self, trace):
        fault_config = FaultConfig(
            seed=5, tier_loss_events=(TierLossEvent(at=50.0, tier="dram"),)
        )
        engine, result = run(trace, fault_config)
        assert engine.store.stats.lost_items > 0
        assert result.summary.n_turns == trace.n_turns_total

    def test_disk_loss_event(self, trace):
        fault_config = FaultConfig(
            seed=5, tier_loss_events=(TierLossEvent(at=50.0, tier="disk"),)
        )
        engine, result = run(trace, fault_config)
        assert result.summary.n_turns == trace.n_turns_total
        engine.store.check_invariants()


class TestFlakySsdRetries:
    def test_transient_faults_are_retried_and_run_completes(self, trace):
        # A DRAM tier worth only ~2000 tokens forces demotions to SSD, so
        # the flaky-ssd profile actually exercises the retry path.
        kv = get_model("llama-13b").kv_bytes_per_token
        store_config = StoreConfig(dram_bytes=2000 * kv, ssd_bytes=100_000 * kv)
        engine, result = run(
            trace, fault_profile("flaky-ssd", seed=2), store_config=store_config
        )
        stats = engine.store.stats
        assert stats.transfer_faults > 0
        assert stats.transfer_retries > 0
        assert result.summary.n_turns == trace.n_turns_total
