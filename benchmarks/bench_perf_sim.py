"""Perf harness: simulator hot-path wall-clock (BENCH_sim.json).

Times a Fig-13-size CA replay twice — once as shipped (O(1) closed-form
layer-wise pipeline, memoised :class:`ModelSpec` hot calls) and once with
the legacy hot path restored (the O(L) per-layer recurrence, caches
bypassed) — plus a microbenchmark of the layer-wise pipeline in
isolation, where the win is not buried under event-loop and store
bookkeeping.  Results land in ``BENCH_sim.json`` at the repo root,
seeding the perf trajectory.

Two further sections measure the PR-3 performance layer:

* **sweep** — a grid of replay points run serially and via the
  :mod:`repro.runner` process pool; per-point results must be
  bit-identical and the wall-clock speedup is floored at a fraction of
  ``min(jobs, cpus)`` (on a single-CPU host parallelism cannot beat
  serial, so the floor only guards against pathological overhead there).
* **metrics_modes** — the same replay with the exact and the streaming
  :class:`MetricsCollector`: identical counters, p95 TTFT within
  tolerance, and the streaming run retaining no per-turn records.

The **profile** section writes one :class:`EventLoopProfiler` report of
a gate-size replay to ``BENCH_profile.txt`` for CI to upload as an
artifact, plus the top-callback *shares* so the continuation refactor's
profile shape
(slotted continuation classes instead of ``_after_epoch.<locals>.fire``
closures at 77% of estimated cost) is asserted per-commit.

The **trace_modes** section exercises the streaming workload layer:
a streamed :func:`repro.workload.stream_trace` replay must be
bit-identical to materialising the same stream up front, and a large
streamed replay (``REPRO_PERF_STREAM_SESSIONS`` sessions, run in a
subprocess so its peak RSS is measured in isolation) must use
sub-linear memory versus a quarter-size run — the O(live-sessions)
claim, since finished sessions are dropped as the stream advances.

Env knobs (all optional): ``REPRO_PERF_SESSIONS``, ``REPRO_PERF_JOBS``,
``REPRO_PERF_SWEEP_FLOOR`` (override the sweep speedup floor),
``REPRO_PERF_EVENTS_FLOOR`` (minimum streaming-replay events/s; 0 = off),
``REPRO_PERF_MAX_RSS_MB`` (peak-RSS ceiling for the process; 0 = off),
``REPRO_PERF_STREAM_SESSIONS`` (streamed-replay size; default 20000),
``REPRO_PROFILE_OUT`` (profile artifact path).

Runs standalone (``python benchmarks/bench_perf_sim.py``) or under pytest.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

from repro.config import EngineConfig, HardwareConfig, StoreConfig
from repro.engine import ServingEngine
from repro.engine.overlap import (
    layerwise_prefill_time,
    layerwise_prefill_time_reference,
)
from repro.models import ModelSpec, get_model
from repro.obs import EventLoopProfiler
from repro.runner import SweepPoint, run_sweep, unwrap
from repro.workload import Trace, WorkloadSpec, generate_trace, stream_trace

import repro.engine.engine as engine_module

MODEL_NAME = "llama-13b"
BENCH_SESSIONS = int(os.environ.get("REPRO_PERF_SESSIONS", "1200"))
REPLAY_ROUNDS = 3
MICRO_CALLS = 100_000
PROFILE_OUT = os.environ.get(
    "REPRO_PROFILE_OUT",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_profile.txt"),
)
SWEEP_JOBS = int(os.environ.get("REPRO_PERF_JOBS", "4"))
SWEEP_SESSION_GRID = (400, 600, 800, 1000)
# The regression gate's replay size is fixed (not REPRO_PERF_SESSIONS):
# its baselines in BENCH_sim.json must mean the same thing on every host
# and in every CI job, whatever replay size the perf smoke test uses.
GATE_SESSIONS = 300
STREAM_SESSIONS = int(os.environ.get("REPRO_PERF_STREAM_SESSIONS", "20000"))
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_sim.json")

# The profile shape before the continuation refactor (PR 8): the
# epoch-guard closure dominated the estimated event-loop cost.  Kept as
# a constant so the before/after share comparison survives baseline
# regeneration.
PRIOR_TOP_CALLBACK = "ServingEngine._after_epoch.<locals>.fire"
PRIOR_TOP_SHARE = 0.773


def load_benchmark_module(name: str):
    """Import a sibling ``benchmarks/<name>.py`` by path (the directory is
    not a package, and under pytest its modules are top-level)."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_engine(streaming_metrics: bool = False) -> ServingEngine:
    model = get_model(MODEL_NAME)
    return ServingEngine(
        model,
        hardware=HardwareConfig().for_model(model),
        engine_config=EngineConfig(batch_size=model.default_batch_size),
        store_config=StoreConfig(),
        streaming_metrics=streaming_metrics,
    )


def replay_once():
    trace = generate_trace(WorkloadSpec(n_sessions=BENCH_SESSIONS, seed=42))
    start = time.perf_counter()
    result = build_engine().run(trace)
    return time.perf_counter() - start, result


def best_of(rounds):
    walls = []
    result = None
    for _ in range(rounds):
        wall, result = replay_once()
        walls.append(wall)
    return min(walls), result


class legacy_hot_path:
    """Temporarily restore the pre-optimisation hot path: per-layer
    pipeline recurrence, no memoisation on ModelSpec."""

    def __enter__(self):
        self._layerwise = engine_module.layerwise_prefill_time
        self._kv = ModelSpec.kv_bytes
        engine_module.layerwise_prefill_time = layerwise_prefill_time_reference
        ModelSpec.kv_bytes = lambda self, n_tokens: self._kv_bytes(n_tokens)
        return self

    def __exit__(self, *exc):
        engine_module.layerwise_prefill_time = self._layerwise
        ModelSpec.kv_bytes = self._kv
        return False


def micro(fn, *args):
    start = time.perf_counter()
    for _ in range(MICRO_CALLS):
        fn(*args)
    return time.perf_counter() - start


def _replay_point_worker(point: SweepPoint, seed: int):
    """Sweep worker: one replay at ``point.params`` sessions (spawn-safe)."""
    del seed  # the replay trace seed is part of the config, not per-point
    trace = generate_trace(WorkloadSpec(n_sessions=point.params, seed=42))
    result = build_engine().run(trace)
    return (result.summary, result.store_stats, result.events_processed)


def sweep_benchmark() -> dict:
    """Serial vs parallel grid replay: wall-clock and bit-identity."""
    points = [SweepPoint(f"sessions={n}", n) for n in SWEEP_SESSION_GRID]
    start = time.perf_counter()
    serial = unwrap(run_sweep(_replay_point_worker, points, jobs=1))
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = unwrap(run_sweep(_replay_point_worker, points, jobs=SWEEP_JOBS))
    parallel_wall = time.perf_counter() - start
    return {
        "jobs": SWEEP_JOBS,
        "cpus": available_cpus(),
        "points": [p.key for p in points],
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 4),
        "bit_identical": all(serial[k] == parallel[k] for k in serial),
    }


def metrics_modes_benchmark() -> dict:
    """Exact vs streaming MetricsCollector on the full replay.

    Timing runs first (untraced); a second pair of runs under tracemalloc
    measures the memory still *retained* when the run finishes — the
    collector's record list is the only difference between the modes, so
    the retained-bytes gap is the streaming win.
    """
    trace = generate_trace(WorkloadSpec(n_sessions=BENCH_SESSIONS, seed=42))

    def timed(streaming: bool):
        engine = build_engine(streaming_metrics=streaming)
        start = time.perf_counter()
        result = engine.run(trace)
        return time.perf_counter() - start, result, engine

    exact_wall, exact, _ = timed(False)
    streaming_wall, streaming, _ = timed(True)

    retained = {}
    records = {}
    for label, flag in (("exact", False), ("streaming", True)):
        tracemalloc.start()
        _, result, engine = timed(flag)
        retained[label], _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        records[label] = len(engine.metrics.records)
        del result, engine

    exact_summary, streaming_summary = exact.summary, streaming.summary
    counters_identical = all(
        getattr(streaming_summary, f) == getattr(exact_summary, f)
        for f in (
            "n_turns",
            "n_lookups",
            "hits_dram",
            "hits_disk",
            "hits_hbm",
            "misses",
            "fallbacks",
            "mean_ttft",
            "mean_queue_delay",
            "prompt_tokens_total",
            "reused_tokens_total",
            "prefill_gpu_time",
            "decode_gpu_time",
            "save_block_time",
            "makespan",
        )
    )
    p95_rel_err = (
        abs(streaming_summary.p95_ttft - exact_summary.p95_ttft)
        / exact_summary.p95_ttft
        if exact_summary.p95_ttft
        else 0.0
    )
    return {
        "exact_wall_s": round(exact_wall, 4),
        "streaming_wall_s": round(streaming_wall, 4),
        "streaming_events_per_s": round(streaming.events_processed / streaming_wall),
        "exact_retained_kb": round(retained["exact"] / 1024),
        "streaming_retained_kb": round(retained["streaming"] / 1024),
        "records_exact": records["exact"],
        "records_streaming": records["streaming"],
        "p95_ttft_exact": round(exact_summary.p95_ttft, 6),
        "p95_ttft_streaming": round(streaming_summary.p95_ttft, 6),
        "p95_rel_err": round(p95_rel_err, 6),
        "counters_identical": counters_identical,
    }


# Subprocess body for the isolated streamed-replay memory measurement:
# peak RSS (ru_maxrss) is process-lifetime-monotone, so measuring it
# inside the harness process would report whichever earlier section
# peaked highest.  Streaming metrics keep the collector O(1) too — the
# point is that *nothing* scales with total sessions.
_STREAM_RSS_SCRIPT = """\
import json, resource, sys, time
from repro.engine import ServingEngine
from repro.config import EngineConfig, HardwareConfig, StoreConfig
from repro.models import get_model
from repro.workload import stream_trace

n = int(sys.argv[1])
model = get_model(sys.argv[2])
engine = ServingEngine(
    model,
    hardware=HardwareConfig().for_model(model),
    engine_config=EngineConfig(batch_size=model.default_batch_size),
    store_config=StoreConfig(),
    streaming_metrics=True,
)
start = time.perf_counter()
result = engine.run(stream_trace(n_sessions=n, seed=42))
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "events": result.events_processed,
    "n_turns": result.summary.n_turns,
    "peak_live_sessions": engine._peak_live_sessions,
    "sessions_retained": len(engine.sessions),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def _stream_replay_subprocess(n_sessions: int) -> dict:
    """Run one streamed replay in a fresh process; return its self-report."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _STREAM_RSS_SCRIPT, str(n_sessions), MODEL_NAME],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def trace_modes_benchmark() -> dict:
    """Streamed vs materialised workload traces.

    Two claims, checked separately:

    * **Identity** — feeding ``stream_trace`` straight to the engine and
      materialising the same stream into a :class:`Trace` first produce
      bit-identical results (same events, same summary, same store
      stats); streaming changes memory behaviour, never the simulation.
    * **O(live-sessions) memory** — a streamed replay's peak RSS is set
      by the live-session high-water mark, not the trace length: a
      replay 4x the size must stay well under 4x the memory.  Both
      replays run in subprocesses so each peak is measured in isolation.
    """
    n_id = min(BENCH_SESSIONS, 800)
    streamed_engine = build_engine()
    start = time.perf_counter()
    streamed = streamed_engine.run(stream_trace(n_sessions=n_id, seed=42))
    streamed_wall = time.perf_counter() - start
    materialized_engine = build_engine()
    trace = Trace(conversations=list(stream_trace(n_sessions=n_id, seed=42)))
    start = time.perf_counter()
    materialized = materialized_engine.run(trace)
    materialized_wall = time.perf_counter() - start
    identical = (
        streamed.events_processed == materialized.events_processed
        and dataclasses.asdict(streamed.summary)
        == dataclasses.asdict(materialized.summary)
        and dataclasses.asdict(streamed_engine.store.stats)
        == dataclasses.asdict(materialized_engine.store.stats)
    )

    big = _stream_replay_subprocess(STREAM_SESSIONS)
    quarter = _stream_replay_subprocess(max(STREAM_SESSIONS // 4, 1))
    return {
        "identity_sessions": n_id,
        "bit_identical": identical,
        "streamed_wall_s": round(streamed_wall, 4),
        "materialized_wall_s": round(materialized_wall, 4),
        "streamed_peak_live_sessions": streamed_engine._peak_live_sessions,
        "streamed_sessions_retained": len(streamed_engine.sessions),
        "stream_sessions": STREAM_SESSIONS,
        "stream_events": big["events"],
        "stream_turns": big["n_turns"],
        "stream_wall_s": round(big["wall_s"], 4),
        "stream_events_per_s": round(big["events"] / big["wall_s"]),
        "stream_peak_live_sessions": big["peak_live_sessions"],
        "stream_sessions_retained": big["sessions_retained"],
        "stream_peak_rss_mb": round(big["peak_rss_mb"], 1),
        "quarter_sessions": max(STREAM_SESSIONS // 4, 1),
        "quarter_peak_rss_mb": round(quarter["peak_rss_mb"], 1),
        "quarter_peak_live_sessions": quarter["peak_live_sessions"],
    }


def profile_section() -> dict:
    """One profiled gate-size replay; full table written to PROFILE_OUT.

    CI uploads the text report as a build artifact so hot-path cost
    shifts are visible per-commit without rerunning anything locally.
    """
    trace = generate_trace(WorkloadSpec(n_sessions=GATE_SESSIONS, seed=42))
    engine = build_engine()
    profiler = EventLoopProfiler(sample_every=16)
    profiler.install(engine.sim)
    engine.run(trace)
    report = profiler.report()
    with open(PROFILE_OUT, "w") as fh:
        fh.write(report.format())
        fh.write("\n")
    # Continuation classes report as their type name (DecodeChunkDone,
    # NextTurnTimer, ...); any surviving closure would show a qualname
    # with "<locals>".  The epoch-guard share tracks what is left of the
    # pre-refactor hot spot (PRIOR_TOP_SHARE of estimated cost).
    epoch_guard_share = sum(
        row.share for row in report.rows if "_after_epoch" in row.name
    )
    return {
        "sessions": GATE_SESSIONS,
        "events": report.n_events,
        "events_per_s": round(report.events_per_s),
        "out_path": os.path.basename(PROFILE_OUT),
        "top_callbacks": [row.name for row in report.rows[:3]],
        "top_shares": {row.name: round(row.share, 4) for row in report.rows[:3]},
        "epoch_guard_share": round(epoch_guard_share, 4),
        "prior_top_callback": PRIOR_TOP_CALLBACK,
        "prior_top_share": PRIOR_TOP_SHARE,
    }


def gates_section() -> dict:
    """Baselines for ``bench_regression_gate.py`` (checked into
    BENCH_sim.json by the local harness run).

    The figure ratios and the replay hit rate are fully deterministic, so
    the gate holds them to tight absolute tolerances; ``events_per_s`` is
    host wall-clock, gated only as a generous fraction floor.
    """
    fig19 = load_benchmark_module("bench_fig19_preload")
    fig20 = load_benchmark_module("bench_fig20_asyncsave")
    no_pl, by_buffer, _perfect, _load, _compute = fig19.compute()
    reductions = [1 - asyn / sync for _, sync, asyn, _ in fig20.compute()]

    sharing = load_benchmark_module("bench_ext_sharing")
    capacity = sharing.capacity_sweep(sharing.GATE_N)
    share_ref = sharing.run_one(
        sharing.GATE_N, 0.5, sharing.REFERENCE_DRAM_GIB, sharing=True
    )

    trace = generate_trace(WorkloadSpec(n_sessions=GATE_SESSIONS, seed=42))
    start = time.perf_counter()
    result = build_engine().run(trace)
    wall = time.perf_counter() - start
    return {
        "sessions": GATE_SESSIONS,
        "fig19_r0": round(1 - by_buffer[0] / no_pl, 6),
        "fig19_r15": round(1 - by_buffer[15] / no_pl, 6),
        "fig20_reduction_min": round(min(reductions), 6),
        "fig20_reduction_max": round(max(reductions), 6),
        "hit_rate": round(result.summary.hit_rate, 6),
        "events": result.events_processed,
        "events_per_s": round(result.events_processed / wall),
        "sharing_sessions": sharing.GATE_N,
        "sharing_hit_rate": round(share_ref.hit_rate, 6),
        "sharing_capacity_ratio": round(capacity["capacity_ratio"], 6),
    }


def run_harness() -> dict:
    optimized_wall, optimized = best_of(REPLAY_ROUNDS)
    with legacy_hot_path():
        legacy_wall, legacy = best_of(REPLAY_ROUNDS)

    # Identical simulations modulo the last-ulp closed-form difference.
    assert optimized.events_processed == legacy.events_processed
    assert optimized.summary.n_turns == legacy.summary.n_turns
    assert abs(optimized.summary.mean_ttft - legacy.summary.mean_ttft) <= (
        1e-9 * legacy.summary.mean_ttft
    )

    model = get_model(MODEL_NAME)
    layerwise_closed = micro(
        layerwise_prefill_time, model.n_layers, 0.35, 0.21, 15
    )
    layerwise_loop = micro(
        layerwise_prefill_time_reference, model.n_layers, 0.35, 0.21, 15
    )

    return {
        "model": MODEL_NAME,
        "sessions": BENCH_SESSIONS,
        "turns": optimized.summary.n_turns,
        "events": optimized.events_processed,
        "replay": {
            "optimized_wall_s": round(optimized_wall, 4),
            "legacy_wall_s": round(legacy_wall, 4),
            "speedup": round(legacy_wall / optimized_wall, 4),
            "events_per_s": round(optimized.events_processed / optimized_wall),
        },
        "layerwise_prefill_time": {
            "micro_calls": MICRO_CALLS,
            "closed_form_s": round(layerwise_closed, 4),
            "reference_loop_s": round(layerwise_loop, 4),
            "speedup": round(layerwise_loop / layerwise_closed, 2),
        },
        "profile": profile_section(),
        "sweep": sweep_benchmark(),
        "metrics_modes": metrics_modes_benchmark(),
        "trace_modes": trace_modes_benchmark(),
        "gates": gates_section(),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


def write_report(payload: dict) -> None:
    with open(OUT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def sweep_speedup_floor(sweep: dict) -> float:
    """The minimum acceptable parallel-sweep speedup on this host.

    Ideal is ``min(jobs, cpus)``; 75 % of that allows scheduling and
    spawn overhead.  A single-CPU host cannot go faster than serial at
    all — there the floor only rejects pathological overhead (> ~2x
    slower than serial).
    """
    override = os.environ.get("REPRO_PERF_SWEEP_FLOOR")
    if override is not None:
        return float(override)
    effective = min(sweep["jobs"], sweep["cpus"])
    # Single CPU: jobs serialise anyway and each spawned worker re-imports
    # the package, so "parallel" = serial + fixed startup overhead.  A
    # floor of 0.25 rejects only pathological (>4x) regressions there.
    return 0.75 * effective if effective > 1 else 0.25


def test_perf_sim():
    payload = run_harness()
    write_report(payload)
    print()
    print(json.dumps(payload, indent=2))
    # The isolated hot paths must be decisively faster; the whole-replay
    # wall-clock is recorded but only sanity-bounded (the event loop and
    # store dominate it, so its delta is small and machine-noisy).
    assert payload["layerwise_prefill_time"]["speedup"] > 2.0
    assert payload["replay"]["speedup"] > 0.85
    assert os.path.exists(PROFILE_OUT)
    # Parallel sweeps must change wall-clock only, never results.
    sweep = payload["sweep"]
    assert sweep["bit_identical"]
    assert sweep["speedup"] >= sweep_speedup_floor(sweep), sweep
    # Streaming metrics: exact counters, bounded p95 error, O(1) records.
    modes = payload["metrics_modes"]
    assert modes["counters_identical"]
    assert modes["p95_rel_err"] <= 0.02
    assert modes["records_streaming"] == 0 < modes["records_exact"]
    assert modes["streaming_retained_kb"] < modes["exact_retained_kb"]
    # Profile shape: the epoch-guard closure that used to dominate the
    # event loop (PRIOR_TOP_SHARE) must stay demoted — continuations are
    # dispatched as slotted instances and the guard is a field check.
    profile = payload["profile"]
    assert profile["epoch_guard_share"] < 0.40, profile
    assert all("<locals>" not in name for name in profile["top_callbacks"]), profile
    # Streamed traces: identical simulation, O(live-sessions) memory.
    # The 4x-size replay may grow a little (live-session high-water mark
    # rises with a longer arrival window, allocator slack) but nothing
    # like linearly; the floor catches any O(total-sessions) structure
    # creeping back into the streamed path.
    traces = payload["trace_modes"]
    assert traces["bit_identical"], traces
    assert traces["stream_sessions_retained"] == 0, traces
    assert traces["stream_peak_rss_mb"] <= (
        1.6 * traces["quarter_peak_rss_mb"] + 96
    ), traces
    # Optional CI guard rails (off when unset).
    events_floor = int(os.environ.get("REPRO_PERF_EVENTS_FLOOR", "0"))
    if events_floor:
        assert modes["streaming_events_per_s"] >= events_floor, modes
    rss_ceiling_mb = int(os.environ.get("REPRO_PERF_MAX_RSS_MB", "0"))
    if rss_ceiling_mb:
        assert payload["peak_rss_mb"] <= rss_ceiling_mb, payload["peak_rss_mb"]


if __name__ == "__main__":
    report = run_harness()
    write_report(report)
    print(json.dumps(report, indent=2))
