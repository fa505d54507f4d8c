"""``plan_turn`` against a literal reference (Sections 3.2-3.4).

The reference keeps the history as a token list and cuts ``cut`` tokens
off its front at a time until the prompt fits the window, then decides
reuse from an if-table with one row per case the engine distinguishes:
turn 0 with or without a shared prefix, failover, a corrupt item, a
private hit whose prefix block is gone, a private hit (with or without
the prefix), a shared-prefix-only hit, and a miss.  Hypothesis draws
histories, q/a lengths, windows, ratios and the private and shared tier
states the engine's lookups can report.
"""

from hypothesis import event, given, settings, strategies as st

from repro.engine import (
    TurnOutcome,
    apply_context_window,
    clamp_decode_tokens,
)
from repro.engine.truncation import plan_turn
from repro.store.attention_store import LookupResult, LookupStatus
from repro.store.sharing import SharedLookup

HITS = {
    LookupStatus.HIT_HBM: TurnOutcome.HIT_HBM,
    LookupStatus.HIT_DRAM: TurnOutcome.HIT_DRAM,
    LookupStatus.HIT_DISK: TurnOutcome.HIT_DISK,
}


def reference_window(history, q, window, ratio):
    """(kept history tokens, kept q) by cutting a token list."""
    tokens = list(range(history))
    cut = max(1, int(window * ratio))
    q = min(q, window)
    while tokens and len(tokens) + q > window:
        tokens = tokens[cut:]
    # The oldest tokens went first: what is kept is the newest suffix.
    assert not tokens or tokens[-1] == history - 1
    return len(tokens), q


def reference_plan(history, prompt, private, shared, prefixed, first_turn, failover):
    """(outcome, reused, shared, loads, drop, fallback outcome); loads are
    ``(status, n_tokens)`` pairs, private first."""
    p_status = private.status if private is not None else None
    s_tokens = shared.n_tokens if shared is not None else 0
    if first_turn and shared is not None:
        reused = min(s_tokens, prompt)
        return (TurnOutcome.HIT_SHARED, reused, reused,
                [(shared.status, reused)], False, TurnOutcome.FIRST_TURN)
    if first_turn:
        return TurnOutcome.FIRST_TURN, 0, 0, [], False, None
    if failover or p_status is LookupStatus.MISS_CORRUPT:
        return TurnOutcome.FALLBACK_RECOMPUTE, 0, 0, [], False, None
    if p_status in HITS and prefixed and shared is None:
        return TurnOutcome.MISS, 0, 0, [], True, None
    if p_status in HITS:
        reused = min(private.n_tokens + s_tokens, history)
        from_shared = min(s_tokens, reused)
        loads = [(p_status, reused - from_shared)]
        if from_shared:
            loads.append((shared.status, from_shared))
        return (HITS[p_status], reused, from_shared, loads, False,
                TurnOutcome.FALLBACK_RECOMPUTE)
    if shared is not None:
        reused = min(s_tokens, history)
        return (TurnOutcome.HIT_SHARED, reused, reused,
                [(shared.status, reused)], False, TurnOutcome.MISS)
    return TurnOutcome.MISS, 0, 0, [], False, None


@st.composite
def turns(draw):
    window = draw(st.integers(16, 4096))
    ratio = draw(st.floats(0.01, 0.99))
    first_turn = draw(st.sampled_from([False, False, True]))
    # Mostly prompts that fit or overflow by a few cuts; sometimes a
    # history several windows long or a question longer than the window.
    history = 0 if first_turn else draw(
        st.one_of(st.integers(0, window), st.integers(0, 3 * window))
    )
    q = draw(st.one_of(st.integers(1, window // 4), st.integers(1, 2 * window)))
    a = draw(st.integers(1, 2 * window))
    failover = draw(st.sampled_from([False, False, False, True]))
    prefixed = draw(st.booleans())
    private_status = draw(
        st.sampled_from(list(LookupStatus) + [LookupStatus.HIT_DRAM, LookupStatus.HIT_DISK])
    )
    private_tokens = draw(st.integers(1, 3 * window))
    shared_status = draw(
        st.sampled_from([LookupStatus.HIT_DRAM, LookupStatus.HIT_DISK, None])
    )
    shared_tokens = draw(st.integers(1, window))
    return (window, ratio, first_turn, history, q, a, failover, prefixed,
            private_status, private_tokens, shared_status, shared_tokens)


@settings(max_examples=400, deadline=None)
@given(turns())
def test_plan_turn_matches_reference(case):
    (window, ratio, first_turn, history, q, a, failover, prefixed,
     private_status, private_tokens, shared_status, shared_tokens) = case
    kept = apply_context_window(history, q, window, ratio)
    ref_history, ref_q = reference_window(history, q, window, ratio)
    assert (kept.history_tokens, kept.q_tokens) == (ref_history, ref_q)
    assert kept.dropped_tokens == history + q - ref_history - ref_q
    prompt = kept.prompt_tokens
    assert clamp_decode_tokens(prompt, a, window) == max(1, min(a, window - prompt))

    # The lookups the engine makes: the private one after turn 0 when not
    # failing over and some history is kept; the shared one on turn 0 or
    # after a private lookup that was not corrupt.
    private = None
    if not (first_turn or failover) and kept.history_tokens:
        hit = private_status in HITS
        private = LookupResult(private_status, private_tokens if hit else 0)
    shared = None
    if (
        prefixed
        and shared_status is not None
        and (first_turn or (private is not None
                            and private.status is not LookupStatus.MISS_CORRUPT))
    ):
        shared = SharedLookup(shared_status, shared_tokens, 0)

    plan = plan_turn(
        kept.history_tokens, prompt, private, shared,
        prefixed=prefixed, first_turn=first_turn, failover=failover,
    )
    outcome, reused, from_shared, loads, drop, fallback = reference_plan(
        kept.history_tokens, prompt, private, shared, prefixed, first_turn, failover
    )
    event(f"{outcome.value}{' drop' if drop else ''}{' shared' if from_shared else ''}")
    assert plan.outcome is outcome
    assert (plan.reused, plan.shared, plan.new) == (reused, from_shared, prompt - reused)
    assert [(lookup.status, n) for lookup, n in plan.loads] == loads
    assert plan.drop_private is drop
    if loads:
        failed = plan.fallback()
        assert failed.outcome is fallback
        assert (failed.reused, failed.shared, failed.new, failed.loads) == (0, 0, prompt, ())
