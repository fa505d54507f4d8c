"""CI bench-regression gate: key ratios must not drift from the baseline.

Compares freshly computed results against the ``gates`` section of the
checked-in ``BENCH_sim.json``:

* **Fig. 19** — the layer-wise pre-loading reductions (PL-B0 and PL-B15
  vs NO-PL) are closed-form and deterministic; they must match the
  baseline to a tight absolute tolerance.
* **Fig. 20** — the async-save total-time reduction band across prompt
  lengths must stay inside the baseline band (± tolerance).
* **Replay hit rate** — a fixed 300-session CA replay's cache hit rate
  is deterministic; drift means a behavioural change slipped in.
* **Sharing capacity** — the cross-session KV sharing figures
  (``bench_ext_sharing``) are deterministic: the iso-hit-rate effective
  capacity ratio must stay >=1.2x and near its baseline, and the
  reference CA+share replay's hit rate must match.
* **Events/s floor** — the same replay must process at least a generous
  fraction of the baseline host's events/s (catches order-of-magnitude
  hot-path regressions without flaking on slower CI machines).  The
  fraction was ratcheted from 0.25 to 0.35 when the calendar-queue
  simulation core landed, and from 0.35 to 0.55 with the engine
  turn-path overhaul (closure-free continuations, batched completion,
  heap dispatch core) — each time against a baseline re-measured on the
  new code, so the floor tracks the optimised hot path rather than
  inheriting slack from the slower one it replaced.

Env overrides: ``REPRO_GATE_RATIO_TOL`` (default 0.02),
``REPRO_GATE_HIT_TOL`` (default 0.05), ``REPRO_GATE_EVENTS_FRACTION``
(default 0.55; 0 disables the floor).

Regenerate baselines with ``python benchmarks/bench_regression_gate.py``
(it rewrites BENCH_sim.json as ``{"gates": {...}}``).
"""

from __future__ import annotations

import importlib.util
import json
import os
import time

import pytest

from repro.config import EngineConfig, HardwareConfig, StoreConfig
from repro.engine import ServingEngine
from repro.models import get_model
from repro.workload import WorkloadSpec, generate_trace

MODEL_NAME = "llama-13b"
# The gate's replay size is fixed: its baselines in BENCH_sim.json must
# mean the same thing on every host and in every CI job.
GATE_SESSIONS = 300
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_sim.json"
)
RATIO_TOL = float(os.environ.get("REPRO_GATE_RATIO_TOL", "0.02"))
HIT_TOL = float(os.environ.get("REPRO_GATE_HIT_TOL", "0.05"))
EVENTS_FRACTION = float(os.environ.get("REPRO_GATE_EVENTS_FRACTION", "0.55"))


def load_benchmark_module(name: str):
    """Import a sibling ``benchmarks/<name>.py`` by path (the directory is
    not a package, and under pytest its modules are top-level)."""
    path = os.path.join(os.path.dirname(__file__), f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_engine() -> ServingEngine:
    model = get_model(MODEL_NAME)
    return ServingEngine(
        model,
        hardware=HardwareConfig().for_model(model),
        engine_config=EngineConfig(batch_size=model.default_batch_size),
        store_config=StoreConfig(),
    )


def timed_gate_replay():
    """The gate's fixed-size CA replay and its wall-clock seconds."""
    trace = generate_trace(WorkloadSpec(n_sessions=GATE_SESSIONS, seed=42))
    start = time.perf_counter()
    result = build_engine().run(trace)
    return result, time.perf_counter() - start


def fig19_reductions() -> tuple[float, float]:
    """PL-B0 and PL-B15 prefill-time reductions vs NO-PL."""
    fig19 = load_benchmark_module("bench_fig19_preload")
    no_pl, by_buffer, _perfect, _load, _compute = fig19.compute()
    return 1 - by_buffer[0] / no_pl, 1 - by_buffer[15] / no_pl


def fig20_reductions() -> list[float]:
    """Async-save total-time reduction at each prompt length."""
    fig20 = load_benchmark_module("bench_fig20_asyncsave")
    return [1 - asyn / sync for _, sync, asyn, _ in fig20.compute()]


def gates_section() -> dict:
    """Fresh baselines for the gates below.

    The figure ratios and the replay hit rate are fully deterministic, so
    the gate holds them to tight absolute tolerances; ``events_per_s`` is
    host wall-clock, gated only as a generous fraction floor.
    """
    r0, r15 = fig19_reductions()
    reductions = fig20_reductions()
    sharing = load_benchmark_module("bench_ext_sharing")
    capacity = sharing.capacity_sweep(sharing.GATE_N)
    share_ref = sharing.run_one(
        sharing.GATE_N, 0.5, sharing.REFERENCE_DRAM_GIB, sharing=True
    )
    result, wall = timed_gate_replay()
    return {
        "sessions": GATE_SESSIONS,
        "fig19_r0": round(r0, 6),
        "fig19_r15": round(r15, 6),
        "fig20_reduction_min": round(min(reductions), 6),
        "fig20_reduction_max": round(max(reductions), 6),
        "hit_rate": round(result.summary.hit_rate, 6),
        "events": result.events_processed,
        "events_per_s": round(result.events_processed / wall),
        "sharing_sessions": sharing.GATE_N,
        "sharing_hit_rate": round(share_ref.hit_rate, 6),
        "sharing_capacity_ratio": round(capacity["capacity_ratio"], 6),
    }


@pytest.fixture(scope="module")
def gates() -> dict:
    with open(BASELINE_PATH) as fh:
        payload = json.load(fh)
    assert "gates" in payload, (
        "BENCH_sim.json has no 'gates' baseline section; regenerate it "
        "with: python benchmarks/bench_regression_gate.py"
    )
    return payload["gates"]


@pytest.fixture(scope="module")
def gate_replay():
    """The gate's fixed-size CA replay, timed (shared by two tests)."""
    return timed_gate_replay()


def test_fig19_preload_reductions_match_baseline(gates):
    r0, r15 = fig19_reductions()
    assert abs(r0 - gates["fig19_r0"]) <= RATIO_TOL, (r0, gates["fig19_r0"])
    assert abs(r15 - gates["fig19_r15"]) <= RATIO_TOL, (r15, gates["fig19_r15"])
    # Deeper buffers must keep helping — the overlap ordering itself.
    assert r15 > r0


def test_fig20_async_save_band_matches_baseline(gates):
    reductions = fig20_reductions()
    assert min(reductions) >= gates["fig20_reduction_min"] - RATIO_TOL, (
        min(reductions),
        gates,
    )
    assert max(reductions) <= gates["fig20_reduction_max"] + RATIO_TOL, (
        max(reductions),
        gates,
    )


def test_replay_hit_rate_matches_baseline(gates, gate_replay):
    result, _ = gate_replay
    assert result.summary.n_turns > 0
    assert abs(result.summary.hit_rate - gates["hit_rate"]) <= HIT_TOL, (
        result.summary.hit_rate,
        gates["hit_rate"],
    )


def test_sharing_capacity_gate(gates):
    """The sharing-smoke CI lane: CA+share must keep its iso-hit-rate
    effective-capacity advantage (>=1.2x) and match the baseline numbers
    (both fully deterministic — fixed trace seed, DRAM-only store)."""
    sharing = load_benchmark_module("bench_ext_sharing")
    capacity = sharing.capacity_sweep(gates["sharing_sessions"])
    assert capacity["capacity_ratio"] >= sharing.MIN_CAPACITY_RATIO, capacity
    assert (
        abs(capacity["capacity_ratio"] - gates["sharing_capacity_ratio"])
        <= RATIO_TOL * gates["sharing_capacity_ratio"]
    ), (capacity["capacity_ratio"], gates["sharing_capacity_ratio"])
    reference = sharing.run_one(
        gates["sharing_sessions"],
        0.5,
        sharing.REFERENCE_DRAM_GIB,
        sharing=True,
    )
    assert abs(reference.hit_rate - gates["sharing_hit_rate"]) <= HIT_TOL, (
        reference.hit_rate,
        gates["sharing_hit_rate"],
    )


def test_replay_events_per_s_floor(gates, gate_replay):
    if not EVENTS_FRACTION:
        pytest.skip("events/s floor disabled (REPRO_GATE_EVENTS_FRACTION=0)")
    result, wall = gate_replay
    events_per_s = result.events_processed / wall
    floor = EVENTS_FRACTION * gates["events_per_s"]
    assert events_per_s >= floor, (events_per_s, floor)


if __name__ == "__main__":
    payload = {"gates": gates_section()}
    with open(BASELINE_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
