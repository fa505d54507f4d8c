"""``plan_turn`` against a literal reference (Sections 3.2-3.4).

The reference keeps the history as a token list and cuts ``cut`` tokens
off its front at a time until the prompt fits the window, then decides
reuse from an if-table with one row per case the engine distinguishes:
turn 0 with or without a shared prefix, failover, a corrupt tail, a tail
hit whose prefix is gone, a tail hit (with or without the prefix), a
shared-prefix-only hit, and a miss.  Hypothesis draws histories, q/a
lengths, windows, ratios and the tail and prefix tier states the
engine's lookups can report.
"""

from hypothesis import event, given, settings, strategies as st

from repro.engine import (
    TurnOutcome,
    apply_context_window,
    clamp_decode_tokens,
)
from repro.engine.truncation import plan_turn
from repro.store.attention_store import LookupResult, LookupStatus

HITS = {
    LookupStatus.HIT_HBM: TurnOutcome.HIT_HBM,
    LookupStatus.HIT_DRAM: TurnOutcome.HIT_DRAM,
    LookupStatus.HIT_DISK: TurnOutcome.HIT_DISK,
}
MISS = LookupResult(LookupStatus.MISS)


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


def reference_plan(history, prompt, tail, prefix, first_turn, failover):
    """(outcome, reused, shared, loads, drop, fallback outcome); loads are
    ``(status, n_tokens)`` pairs, tail first."""
    p_hit = prefix is not None and prefix.status in HITS
    s_tokens = prefix.n_tokens if p_hit else 0
    if first_turn and p_hit:
        reused = min(s_tokens, prompt)
        return (TurnOutcome.HIT_SHARED, reused, reused,
                [(prefix.status, reused)], False, TurnOutcome.FIRST_TURN)
    if first_turn:
        return TurnOutcome.FIRST_TURN, 0, 0, [], False, None
    if failover or tail.status is LookupStatus.MISS_CORRUPT:
        return TurnOutcome.FALLBACK_RECOMPUTE, 0, 0, [], False, None
    if tail.status in HITS and prefix is not None and not p_hit:
        return TurnOutcome.MISS, 0, 0, [], True, None
    if tail.status in HITS:
        reused = min(tail.n_tokens + s_tokens, history)
        from_shared = min(s_tokens, reused)
        loads = [(tail.status, reused - from_shared)]
        if from_shared:
            loads.append((prefix.status, from_shared))
        return (HITS[tail.status], reused, from_shared, loads, False,
                TurnOutcome.FALLBACK_RECOMPUTE)
    if p_hit:
        reused = min(s_tokens, history)
        return (TurnOutcome.HIT_SHARED, reused, reused,
                [(prefix.status, reused)], False, TurnOutcome.MISS)
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
    has_prefix = draw(st.booleans())
    tail_status = draw(
        st.sampled_from(list(LookupStatus) + [LookupStatus.HIT_DRAM, LookupStatus.HIT_DISK])
    )
    tail_tokens = draw(st.integers(1, 3 * window))
    # A MISS is a prefix that is gone (never registered, evicted, expired).
    prefix_status = draw(
        st.sampled_from([LookupStatus.HIT_DRAM, LookupStatus.HIT_DISK, LookupStatus.MISS])
    )
    prefix_tokens = draw(st.integers(1, window))
    return (window, ratio, first_turn, history, q, a, failover, has_prefix,
            tail_status, tail_tokens, prefix_status, prefix_tokens)


@settings(max_examples=400, deadline=None)
@given(turns())
def test_plan_turn_matches_reference(case):
    (window, ratio, first_turn, history, q, a, failover, has_prefix,
     tail_status, tail_tokens, prefix_status, prefix_tokens) = case
    kept = apply_context_window(history, q, window, ratio)
    ref_history, ref_q = reference_window(history, q, window, ratio)
    assert (kept.history_tokens, kept.q_tokens) == (ref_history, ref_q)
    assert kept.dropped_tokens == history + q - ref_history - ref_q
    prompt = kept.prompt_tokens
    assert clamp_decode_tokens(prompt, a, window) == max(1, min(a, window - prompt))

    # The lookups the engine makes: the tail after turn 0 when not failing
    # over and some history is kept; the prefix on turn 0 or after a tail
    # lookup that was not corrupt.  A lookup not made is a MISS.
    tail = MISS
    read_tail = not (first_turn or failover) and kept.history_tokens
    if read_tail:
        hit = tail_status in HITS
        tail = LookupResult(tail_status, tail_tokens if hit else 0)
    prefix = None
    if has_prefix:
        prefix = MISS
        if first_turn or (read_tail and tail.status is not LookupStatus.MISS_CORRUPT):
            hit = prefix_status in HITS
            prefix = LookupResult(prefix_status, prefix_tokens if hit else 0)

    plan = plan_turn(
        kept.history_tokens, prompt, tail, prefix,
        first_turn=first_turn, failover=failover,
    )
    outcome, reused, from_shared, loads, drop, fallback = reference_plan(
        kept.history_tokens, prompt, tail, prefix, first_turn, failover
    )
    event(f"{outcome.value}{' drop' if drop else ''}{' shared' if from_shared else ''}")
    assert plan.outcome is outcome
    assert (plan.reused, plan.shared, plan.new) == (reused, from_shared, prompt - reused)
    assert [(lookup.status, n) for lookup, n in plan.loads] == loads
    assert plan.drop_tail is drop
    if loads:
        failed = plan.fallback()
        assert failed.outcome is fallback
        assert (failed.reused, failed.shared, failed.new, failed.loads) == (0, 0, prompt, ())
