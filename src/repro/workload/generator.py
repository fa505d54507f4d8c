"""Synthetic ShareGPT-like trace generation.

See :mod:`repro.workload.spec` for the distributional assumptions and the
paper statistics they are fit to.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterator

import numpy as np

from .spec import LognormalSpec, WorkloadSpec
from .trace import Conversation, Trace, Turn


def _draw_lengths(rng: np.random.Generator, spec: LognormalSpec, n: int) -> np.ndarray:
    """Draw ``n`` integer token lengths from a clipped lognormal."""
    raw = rng.lognormal(mean=spec.mu, sigma=spec.sigma, size=n)
    return np.clip(np.rint(raw).astype(np.int64), spec.minimum, spec.maximum)


def _draw_turn_counts(rng: np.random.Generator, spec: WorkloadSpec, n: int) -> np.ndarray:
    """Draw turn counts: 1 w.p. (1 - p_multi), else 2 + Geometric."""
    multi = rng.random(n) < spec.p_multi_turn
    # numpy's geometric is on {1, 2, ...} with mean 1/p; shift to {0, 1, ...}.
    extra = rng.geometric(spec.geometric_p, size=n) - 1
    counts = np.where(multi, 2 + extra, 1)
    return np.minimum(counts, spec.max_turns)


def generate_trace(spec: WorkloadSpec | None = None, **overrides: Any) -> Trace:
    """Generate a synthetic conversation trace.

    Args:
        spec: workload specification; defaults to the paper's ShareGPT-like
            settings.  Keyword ``overrides`` replace individual fields, e.g.
            ``generate_trace(n_sessions=500, seed=7)``.

    Returns:
        A :class:`~repro.workload.trace.Trace` with ``spec.n_sessions``
        conversations, Poisson session arrivals at ``spec.arrival_rate``
        (the paper's Section 4.1 setting) and lognormal turn lengths.

    The returned trace is fully materialised — every conversation object
    exists before the engine sees the first arrival.  For replays too
    large to hold in memory, :func:`stream_trace` generates the same
    *kind* of workload lazily (block-seeded, so it is a different random
    sequence for the same seed) and can be passed straight to
    ``ServingEngine.run``.
    """
    if spec is None:
        spec = WorkloadSpec()
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)

    rng = np.random.default_rng(spec.seed)
    n = spec.n_sessions

    arrivals = np.cumsum(rng.exponential(1.0 / spec.arrival_rate, size=n))
    conversations = list(_conversations(rng, spec, arrivals, n, 0))

    metadata = {
        "generator": "repro.workload.generator",
        "n_sessions": spec.n_sessions,
        "arrival_rate": spec.arrival_rate,
        "seed": spec.seed,
    }
    if spec.shared_prefix_fraction > 0:
        metadata["shared_prefix_fraction"] = spec.shared_prefix_fraction
        metadata["shared_prefix_len"] = spec.shared_prefix_len
        metadata["n_shared_prefixes"] = spec.n_shared_prefixes
    return Trace(conversations=conversations, metadata=metadata)


def _conversations(
    rng: np.random.Generator,
    spec: WorkloadSpec,
    arrivals: np.ndarray,
    n_draw: int,
    first_id: int,
) -> Iterator[Conversation]:
    """Draw the turns of ``n_draw`` sessions and yield the conversations
    of the first ``len(arrivals)`` of them, numbered from ``first_id``.

    The draws are turn counts, question lengths, answer lengths and think
    times, then the shared prefixes.  The prefix draws come *after* every
    other draw and only when sharing is on: a share-free spec consumes the
    exact same RNG stream as before the knob existed (bit-identical
    traces).

    The draws are read through memoryviews, whose items and ``tolist()``
    slices are plain Python ints and floats: no numpy scalar per access,
    and no up-front conversion of the whole draw (a stream's first
    conversation costs one session's conversion, not a block's).
    """
    turn_counts = _draw_turn_counts(rng, spec, n_draw)
    total_turns = int(turn_counts.sum())
    questions = memoryview(_draw_lengths(rng, spec.q_tokens, total_turns))
    answers = memoryview(_draw_lengths(rng, spec.a_tokens, total_turns))
    think_times = memoryview(
        rng.lognormal(
            mean=spec.think_time_mu, sigma=spec.think_time_sigma, size=total_turns
        )
    )
    shared_flags, prefix_ids = _draw_shared_prefixes(rng, spec, n_draw)
    prefix_len = spec.shared_prefix_len
    first = 0
    for session_id, arrival, k, shared, prefix_id in zip(
        count(first_id),
        memoryview(arrivals),
        memoryview(turn_counts),
        memoryview(shared_flags),
        memoryview(prefix_ids),
    ):
        end = first + k
        prefix_tokens = prefix_len if shared else 0
        # The template prepends to the first question; the first turn has
        # no think time.
        yield Conversation(
            session_id=session_id,
            arrival_time=arrival,
            turns=(
                Turn(questions[first] + prefix_tokens, answers[first]),
                *map(
                    Turn,
                    questions[first + 1 : end].tolist(),
                    answers[first + 1 : end].tolist(),
                    think_times[first + 1 : end].tolist(),
                ),
            ),
            shared_prefix_id=prefix_id if prefix_tokens else 0,
            shared_prefix_tokens=prefix_tokens,
        )
        first = end


def _draw_shared_prefixes(
    rng: np.random.Generator, spec: WorkloadSpec, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which sessions share a prefix, and which template each one uses.

    The prefix tokens are *added on top of* the drawn first-turn question
    length (a template prepends to whatever the user asks), so the
    non-prefix draws are untouched and remain comparable across share
    ratios.  With sharing off this consumes no RNG at all.
    """
    if spec.shared_prefix_fraction <= 0:
        zeros = np.zeros(n, dtype=np.int64)
        return zeros, zeros
    shared_flags = rng.random(n) < spec.shared_prefix_fraction
    prefix_ids = rng.integers(0, spec.n_shared_prefixes, size=n)
    return shared_flags, prefix_ids


#: Sessions drawn per block by :func:`stream_trace`.  Large enough that
#: the vectorised numpy draws amortise, small enough that one block is
#: negligible next to the engine's live-session state.
DEFAULT_STREAM_BLOCK = 4096


def stream_trace(
    spec: WorkloadSpec | None = None,
    *,
    block_sessions: int = DEFAULT_STREAM_BLOCK,
    **overrides: Any,
) -> Iterator[Conversation]:
    """Generate a conversation workload lazily, in arrival order.

    Yields the same *kind* of workload as :func:`generate_trace` — same
    turn-count, token-length and think-time distributions — but draws it
    in fixed-size blocks from per-block random substreams, so:

    * **O(block) memory** — at most one block of numpy draws exists at a
      time; the conversations themselves are yielded one by one and can
      be dropped by the consumer as sessions finish.  Paired with the
      engine's streaming ``schedule_trace`` path, a 100K-session replay
      never materialises more than the live sessions plus one block.
    * **Prefix stability** — block ``b`` is drawn from the substream
      ``SeedSequence(seed, spawn_key=(b,))``, independent of
      ``n_sessions``.  Streams with the same seed agree conversation-
      for-conversation on their common prefix, so a short smoke run is
      a prefix of the full run.
    * **Monotone arrivals** — arrivals are a Poisson process (cumulative
      exponential gaps, the paper's baseline) whose offset carries
      across blocks, so yielded arrival times never decrease — the
      ordering contract the engine's streamed-arrival chain validates.

    Because the substreams differ from :func:`generate_trace`'s single
    sequential stream, the two functions produce *different* (equally
    distributed) workloads for the same seed.  Materialising a stream
    (``Trace(conversations=list(stream_trace(...)))``) and replaying it
    gives bit-identical results to feeding the stream directly.

    Args:
        spec: workload specification (defaults to the paper's settings);
            keyword ``overrides`` replace individual fields.
        block_sessions: sessions drawn per substream block.
    """
    if spec is None:
        spec = WorkloadSpec()
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)
    if block_sessions <= 0:
        raise ValueError(f"block_sessions must be positive, got {block_sessions}")

    n = spec.n_sessions
    mean_gap = 1.0 / spec.arrival_rate
    arrival_offset = 0.0
    session_id = 0
    for block_index in range(0, -(-n // block_sessions)):
        block_n = min(block_sessions, n - block_index * block_sessions)
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(block_index,))
        )
        # Same draw order as generate_trace, scoped to this block.  Every
        # draw uses the *full* block size even when only a prefix is
        # yielded (the final block of a short stream): sizing a draw by
        # ``block_n`` would leave the substream at a different position
        # for the next draw and break prefix stability against a longer
        # stream that fills the same block.
        arrivals = arrival_offset + np.cumsum(
            rng.exponential(mean_gap, size=block_sessions)
        )
        arrival_offset = float(arrivals[-1])
        yield from _conversations(
            rng, spec, arrivals[:block_n], block_sessions, session_id
        )
        session_id += block_n
