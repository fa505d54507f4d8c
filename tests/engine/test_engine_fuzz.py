"""Property-based fuzzing of the serving engine.

Arbitrary miniature workloads must always run to completion with coherent
accounting, in every serving mode and store configuration.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import EngineConfig, EvictionPolicyName, StoreConfig
from repro.engine import ServingEngine
from repro.models import GiB, get_model
from repro.workload.trace import Conversation, Trace, Turn

turn_strategy = st.builds(
    Turn,
    q_tokens=st.integers(min_value=1, max_value=3000),
    a_tokens=st.integers(min_value=1, max_value=1500),
    think_time=st.floats(min_value=0.0, max_value=120.0),
)


@st.composite
def trace_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    conversations = []
    for sid in range(n):
        turns = draw(st.lists(turn_strategy, min_size=1, max_size=5))
        arrival = draw(st.floats(min_value=0.0, max_value=60.0))
        conversations.append(
            Conversation(sid, arrival, tuple(turns))
        )
    return Trace(conversations=conversations)


def run_and_check(trace, engine_config, store_config=None, model_name="llama-13b"):
    model = get_model(model_name)
    engine = ServingEngine(
        model, engine_config=engine_config, store_config=store_config
    )
    result = engine.run(trace)
    summary = result.summary

    # Completion invariants.
    assert summary.n_turns == trace.n_turns_total
    assert engine.sessions == {}
    assert not engine._gpu_busy
    assert len(engine.queue) == 0 and len(engine.batch) == 0
    assert engine._hbm_reserved_tokens == 0

    # Accounting invariants.
    assert summary.prompt_tokens_total == (
        summary.new_tokens_total + summary.reused_tokens_total
    )
    assert summary.n_lookups == trace.n_turns_total - len(trace)
    for record in engine.metrics.records:
        assert record.prompt_tokens <= model.context_window
        assert record.generated_tokens >= 1
        assert record.ttft >= 0
        assert record.completion_time >= record.prefill_start
    assert summary.total_gpu_busy_time >= 0
    return result


class TestEngineFuzz:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace_strategy())
    def test_cached_mode(self, trace):
        run_and_check(trace, EngineConfig(batch_size=4))

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace_strategy())
    def test_recompute_mode(self, trace):
        result = run_and_check(
            trace, EngineConfig.recompute_baseline(batch_size=4)
        )
        assert result.summary.reused_tokens_total == 0

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        trace_strategy(),
        st.sampled_from(list(EvictionPolicyName)),
        st.booleans(),
    )
    def test_tight_store(self, trace, policy, prefetch):
        store = StoreConfig(
            dram_bytes=2 * GiB,
            ssd_bytes=6 * GiB,
            policy=policy,
            enable_prefetch=prefetch,
        )
        run_and_check(trace, EngineConfig(batch_size=2), store_config=store)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace_strategy())
    def test_small_window_model(self, trace):
        """LLaMA-65B's 2K window forces truncation on most prompts."""
        run_and_check(
            trace, EngineConfig(batch_size=2), model_name="llama-65b"
        )
