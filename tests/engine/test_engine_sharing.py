"""Cross-session KV sharing through the serving engine.

Prefix-bearing workloads (``shared_prefix_fraction > 0``) route through
the content-addressed shared block path: the first prefix-bearing
session to save registers the block, later sessions hit it — on turn 0
(the only outcome where a first turn reuses KV) and combined with their
private suffix on later turns.  A share-free workload must be untouched:
enabling sharing on it is bit-identical to disabling it.
"""

import pytest

from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine, TurnOutcome
from repro.models import GiB, MiB, get_model
from repro.obs import SpanTracer
from repro.workload import WorkloadSpec, generate_trace

PREFIX_TOKENS = 120


def sharing_trace(fraction=0.5, n_sessions=60, seed=21, n_prefixes=2):
    return generate_trace(
        WorkloadSpec(
            n_sessions=n_sessions,
            seed=seed,
            shared_prefix_fraction=fraction,
            shared_prefix_len=PREFIX_TOKENS if fraction else 0,
            n_shared_prefixes=n_prefixes,
        )
    )


def run(trace, store_config=None, tracer=None):
    engine = ServingEngine(
        get_model("llama-13b"),
        engine_config=EngineConfig(batch_size=8),
        store_config=store_config or StoreConfig(),
    )
    if tracer is not None:
        tracer.attach_engine(engine)
    result = engine.run(trace)
    return engine, result


def final_histories(records):
    """Each session's history after its last served turn, by session id."""
    history = {}
    for r in sorted(records, key=lambda r: r.turn_index):
        history[r.session_id] = r.prompt_tokens + r.generated_tokens
    return history


@pytest.fixture(scope="module")
def shared_run():
    return run(sharing_trace())


class TestSharedServing:
    def test_all_turns_served(self, shared_run):
        _, result = shared_run
        assert result.summary.n_turns == sharing_trace().n_turns_total

    def test_shared_hits_happen(self, shared_run):
        _, result = shared_run
        assert result.summary.hits_shared > 0
        assert result.summary.shared_reused_tokens_total > 0

    def test_shared_hits_count_toward_hit_rate(self, shared_run):
        _, result = shared_run
        s = result.summary
        hits = s.hits_dram + s.hits_disk + s.hits_hbm + s.hits_shared
        assert s.n_lookups > 0
        assert s.hit_rate == pytest.approx(hits / s.n_lookups)

    def test_first_turns_can_hit(self, shared_run):
        """Turn 0 of a later prefix-bearing session reuses the block —
        the only outcome where a first turn reuses any KV."""
        engine, _ = shared_run
        first_turn_shared = [
            r
            for r in engine.metrics.records
            if r.turn_index == 0 and r.outcome is TurnOutcome.HIT_SHARED
        ]
        assert first_turn_shared
        assert all(
            0 < r.shared_hit_tokens <= PREFIX_TOKENS for r in first_turn_shared
        )

    def test_later_turns_combine_private_and_shared(self, shared_run):
        engine, _ = shared_run
        combined = [
            r
            for r in engine.metrics.records
            if r.turn_index > 0 and r.shared_hit_tokens > 0 and r.outcome.is_hit
        ]
        assert combined
        for r in combined:
            assert r.reused_tokens >= r.shared_hit_tokens

    def test_store_state_consistent(self, shared_run):
        engine, result = shared_run
        store = engine.store
        store.check_invariants()
        assert len(store._by_hash) <= 2  # one block per template
        assert result.store_stats.shared_registered <= 2
        assert result.store_stats.shared_acquires > 0

    def test_suffix_only_saves(self, shared_run):
        """Prefix-bearing sessions save their suffix privately; the item
        is smaller than the session's full history by the prefix."""
        engine, _ = shared_run
        store = engine.store
        history = final_histories(engine.metrics.records)
        suffix_sessions = [
            conv
            for conv in sharing_trace().conversations
            if conv.shared_prefix_tokens
            and store.prefix_of(conv.session_id) is not None
            and store.get(conv.session_id) is not None
        ]
        assert suffix_sessions
        for conv in suffix_sessions:
            item = store.get(conv.session_id)
            assert (
                item.n_tokens
                <= history[conv.session_id] - conv.shared_prefix_tokens
            )


class TestSharingDisabled:
    def test_knob_off_means_no_shared_hits(self):
        _, result = run(
            sharing_trace(), store_config=StoreConfig(enable_sharing=False)
        )
        assert result.summary.hits_shared == 0
        assert result.store_stats.shared_registered == 0

    def test_hbm_mode_disables_sharing(self):
        """HBM caching saves the full history per session — incompatible
        with suffix-only items, so the shared path must stay off."""
        _, result = run(
            sharing_trace(),
            store_config=StoreConfig(hbm_cache_bytes=4 * GiB),
        )
        assert result.summary.hits_shared == 0


class TestShareFreeBitIdentity:
    def test_enable_sharing_is_inert_without_prefixes(self):
        """The acceptance criterion: a share-free workload runs
        bit-identically whether the sharing machinery is on or off."""
        trace = generate_trace(WorkloadSpec(n_sessions=40, seed=7))
        _, on = run(trace, store_config=StoreConfig(enable_sharing=True))
        _, off = run(trace, store_config=StoreConfig(enable_sharing=False))
        assert on.summary == off.summary
        assert on.events_processed == off.events_processed
        assert on.summary.hits_shared == 0


class TestDivergence:
    def test_truncation_detaches_sessions(self):
        """Context-window overflow truncates history: affected sessions
        diverge from the prefix for good and still serve every turn."""
        from dataclasses import replace

        model = replace(get_model("llama-13b"), context_window=512)
        trace = sharing_trace(n_sessions=40, seed=5)
        engine = ServingEngine(
            model,
            engine_config=EngineConfig(batch_size=8),
            store_config=StoreConfig(),
        )
        result = engine.run(trace)
        assert result.summary.n_turns == trace.n_turns_total
        truncated = {r.session_id for r in engine.metrics.records if r.dropped_tokens}
        detached = [
            conv.session_id
            for conv in trace.conversations
            if conv.shared_prefix_tokens and conv.session_id in truncated
        ]
        assert detached
        for session_id in detached:
            assert engine.store.prefix_of(session_id) is None
        engine.store.check_invariants()


class TestRejectedSaves:
    def test_rejected_save_leaves_no_reference_behind(self):
        """A session holds its prefix reference only while it has a tail
        or a running turn: one whose save was rejected, leaving no tail,
        must not keep its template pinned after the turn."""
        trace = sharing_trace()
        engine, result = run(trace, StoreConfig(dram_bytes=int(600 * MiB)))
        store = engine.store
        assert result.store_stats.save_rejections > 0
        tailless = [
            conv.session_id
            for conv in trace.conversations
            if store.get(conv.session_id) is None
        ]
        assert tailless
        assert not [sid for sid in tailless if store.release_shared(sid)]
        store.check_invariants()


class TestSharedTracing:
    def test_shared_hit_spans_emitted(self):
        tracer = SpanTracer()
        run(sharing_trace(), tracer=tracer)
        names = {s.name for s in tracer.spans}
        assert "shared-hit" in names
