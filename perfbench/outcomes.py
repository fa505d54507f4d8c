"""Simulated outcomes and the checks every replay must pass.

The simulated outcomes are pure functions of the trace: they must be
bit-identical across repeats of one seed and between traced and untraced
replays.  Every violation raises :class:`BenchmarkError` naming the metric
or check that failed.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.engine.metrics import TurnRecord

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class BenchmarkError(Exception):
    """A replay's output violated a check; the message names the metric."""


def percentile(sorted_values: list[float], q: float, metric: str) -> float:
    """Nearest-rank ``q`` quantile of ascending ``sorted_values``."""
    n = len(sorted_values)
    index = min(n - 1, int(q * n))
    beyond = n - 1 - index
    if n == 0 or beyond < MIN_SAMPLES_BEYOND:
        raise BenchmarkError(
            f"{metric}: {n} samples leave {max(beyond, 0)} beyond the "
            f"p{q * 100:g}; at least {MIN_SAMPLES_BEYOND} are required"
        )
    return sorted_values[index]


def eval_records(records: list[TurnRecord]) -> list[TurnRecord]:
    return [r for r in records if r.in_eval_window]


def sim_outcomes(records: list[TurnRecord], result: Any) -> dict[str, float]:
    """The paper-facing simulated outcomes over the evaluation window."""
    evals = eval_records(records)
    ttft = sorted(r.ttft for r in evals)
    ftl = sorted(r.queue_delay + r.ttft for r in evals)
    summary = result.summary
    if summary.n_turns != len(evals):
        raise BenchmarkError(
            f"sim_gpu_s_per_turn: summary counts {summary.n_turns} eval turns, "
            f"records hold {len(evals)}"
        )
    return {
        "sim_ttft_p50_s": percentile(ttft, 0.50, "sim_ttft_p50_s"),
        "sim_ttft_p99_s": percentile(ttft, 0.99, "sim_ttft_p99_s"),
        "sim_ftl_p50_s": percentile(ftl, 0.50, "sim_ftl_p50_s"),
        "sim_ftl_p99_s": percentile(ftl, 0.99, "sim_ftl_p99_s"),
        "sim_hit_rate": summary.hit_rate,
        "sim_gpu_s_per_turn": summary.gpu_time / summary.n_turns,
        "sim_prefill_tok_per_gpu_s": summary.prefill_throughput,
    }


def queue_wait(records: list[TurnRecord]) -> dict[str, float]:
    waits = sorted(r.queue_delay for r in eval_records(records))
    return {
        "engine.queue_wait_p50_s": percentile(waits, 0.50, "engine.queue_wait_p50_s"),
        "engine.queue_wait_p99_s": percentile(waits, 0.99, "engine.queue_wait_p99_s"),
    }


def count_failed_turns(records: list[TurnRecord], expected: int) -> int:
    """Trace turns that did not complete; every completed turn must be a
    distinct turn of the trace."""
    completed = {(r.session_id, r.turn_index) for r in records}
    if len(completed) != len(records):
        raise BenchmarkError(
            f"failed_turn_share: {len(records) - len(completed)} turns completed twice"
        )
    if len(completed) > expected:
        raise BenchmarkError(
            f"failed_turn_share: {len(completed)} turns completed, trace has {expected}"
        )
    return expected - len(completed)


def check_invariants(stores: list[Any]) -> None:
    for index, store in enumerate(stores):
        try:
            store.check_invariants()
        except AssertionError as exc:
            raise BenchmarkError(
                f"store.check_invariants (store {index}): {exc}"
            ) from exc


def fingerprint(result: Any) -> dict[str, Any]:
    """Every simulated counter of a run: ``RunSummary`` and ``StoreStats``
    (per replica, plus ``ClusterResult`` counters for a cluster)."""
    return dataclasses.asdict(result)


def check_identical(
    a: dict[str, Any], b: dict[str, Any], what: str, prefix: str = ""
) -> None:
    """Raise naming the first differing field of two fingerprints."""
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        name = f"{prefix}{key}"
        if isinstance(left, dict) and isinstance(right, dict):
            check_identical(left, right, what, name + ".")
        elif isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
            if len(left) != len(right):
                raise BenchmarkError(f"{name}: lengths differ ({what})")
            for i, (x, y) in enumerate(zip(left, right)):
                if isinstance(x, dict) and isinstance(y, dict):
                    check_identical(x, y, what, f"{name}[{i}].")
                elif x != y:
                    raise BenchmarkError(f"{name}[{i}]: {x!r} != {y!r} ({what})")
        elif left != right:
            raise BenchmarkError(f"{name}: {left!r} != {right!r} ({what})")
