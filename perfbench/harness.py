"""Replays, checks and metric computation behind ``run.py``.

Every replay runs its simulation in slices of simulated time with
reference-kernel calls between them, so that its host time can be
normalised by the host's speed at that moment (:mod:`hostclock`).
Untraced runs replay the workload a fixed number of times and report
the end-to-end metrics.  Traced runs replay it untraced and once with
the layer instrumentation installed, check that all replays simulate
exactly the same thing, and report the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any

from hostclock import HostClock
from layers import LAYERS, Instrumentation, TimedStream
from outcomes import (
    MIN_SAMPLES_BEYOND,
    BenchmarkError,
    check_identical,
    check_invariants,
    count_failed_turns,
    eval_records,
    fingerprint,
    queue_wait,
    sim_outcomes,
)
from workloads import WORKLOADS, Target, Workload

#: Set-up samples per untraced run (``setup_s`` is their median), and the
#: reference-kernel calls on each side of one sample.
SETUP_SAMPLES = 5
SETUP_REF_CALLS = 20

#: Engine continuations reported one by one in the traced run.
REPORTED_CONTINUATIONS = (
    "PrefillSliceDone",
    "DecodeChunkDone",
    "NextTurnTimer",
    "SaveBlockDone",
    "FetchDone",
    "SessionStart",
    "StreamArrival",
)
REPORTED_STORE_OPS = (
    "save",
    "truncate",
    "lookup",
    "lookup_shared",
    "acquire_shared",
    "register_shared",
)
STORE_COUNTERS = ("evicted_to_disk", "evicted_out", "save_rejections", "cow_forks")


@dataclass
class Replay:
    """One replay's host costs and checked outputs."""

    host: HostClock  # the measured phase: sim.run() slices + result()
    generate_s: float  # wall s of trace generation during set-up
    completed: int
    failed: int
    events: int
    outcomes: dict[str, float]
    fingerprint: dict[str, Any]
    n_eval: int
    loop_s: float = 0.0  # traced only: wall s in the event loop itself


def replay(
    workload: Workload, seed: int, expected: int, inst: Instrumentation | None = None
) -> tuple[Replay, Target, Any]:
    """Set up and replay ``workload`` once; return (Replay, target, result).

    With ``inst`` (installed) the tracer is attached, a streamed trace is
    wrapped so that its generation is timed, and the layer timer covers
    the measured phase only.
    """
    gc.collect()
    wall0 = time.perf_counter()
    trace = workload.make_trace(seed)
    generate_s = time.perf_counter() - wall0
    if inst is not None and workload.streamed:
        trace = TimedStream(trace, inst.timer)
    target = workload.build()
    if inst is not None:
        if target.is_cluster:
            inst.tracer.attach_cluster(target.system)  # type: ignore[arg-type]
        else:
            inst.tracer.attach_engine(target.system)  # type: ignore[arg-type]
    target.schedule_trace(trace)
    del trace
    host = HostClock()
    if inst is not None:
        generate_s += inst.timer.inclusive_s.get("workload.next", 0.0)
        inst.timer.reset()
        inst.probes.clock = host.measured_wall

    # Slices stop once every trace turn has completed or a slice
    # dispatched no event; the rest runs as one slice.  sim.run() pauses
    # the garbage collector while it runs, and so does the harness
    # between slices, so that slicing adds no collections.
    sim = target.sim
    until = 0.0
    gc.disable()
    try:
        while target.completed_turns() < expected:
            until += workload.slice_s
            events = sim.events_processed
            host.measure(sim.run, until)
            if sim.events_processed == events:
                break
        host.measure(sim.run)
    finally:
        gc.enable()
    result = host.measure(target.result)

    records = target.records()
    check_invariants(target.stores())
    rep = Replay(
        host=host,
        generate_s=generate_s,
        completed=len(records),
        failed=count_failed_turns(records, expected),
        events=sim.events_processed,
        outcomes=sim_outcomes(records, result),
        fingerprint=fingerprint(result),
        n_eval=len(eval_records(records)),
    )
    if inst is not None:
        if not inst.timer.balanced:
            raise BenchmarkError("sim.self_s: the layer timer stack is unbalanced")
        rep.loop_s = host.wall_s - inst.timer.top_s
    return rep, target, result


def setup_sample(workload: Workload, seed: int) -> float:
    """Normalised host seconds of one set-up: trace generation, build and
    ``schedule_trace``, averaged over ``workload.setup_batch`` set-ups."""

    def set_up() -> None:
        for _ in range(workload.setup_batch):
            target = workload.build()
            target.schedule_trace(workload.make_trace(seed))
            del target

    gc.collect()
    host = HostClock()
    host.calibrate(SETUP_REF_CALLS)
    host.measure(set_up)
    host.calibrate(SETUP_REF_CALLS)
    return host.normalised_s / workload.setup_batch


def check_same(first: Replay, other: Replay, what: str) -> None:
    for name, value in first.outcomes.items():
        if other.outcomes[name] != value:
            raise BenchmarkError(
                f"{name}: {value!r} != {other.outcomes[name]!r} ({what})"
            )
    if first.completed != other.completed:
        raise BenchmarkError(f"turns_per_s: completed turns differ ({what})")
    if first.events != other.events:
        raise BenchmarkError(f"sim.events: {first.events} != {other.events} ({what})")
    check_identical(first.fingerprint, other.fingerprint, what)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(
    workload: Workload, seed: int, replays: list[Replay], expected: int, result: Any
) -> None:
    """Turn accounting, percentile sample counts and raw host times,
    printed before the JSON line."""
    first = replays[0]
    n = first.n_eval
    beyond_p99 = n - 1 - min(n - 1, int(0.99 * n))
    print(
        f"{workload.name} seed={seed}: {len(replays)} replays; per replay "
        f"turns attempted {expected}, succeeded {first.completed}, "
        f"failed {first.failed}"
    )
    print(
        f"percentiles over the eval window: n={n} samples, {beyond_p99} beyond "
        f"the p99 (at least {MIN_SAMPLES_BEYOND} required)"
    )
    for label, values in (
        ("cpu s", [r.host.cpu_s for r in replays]),
        ("reference-kernel ms/call", [1e3 * r.host.ref_cpu_s / r.host.ref_calls for r in replays]),
        ("normalised s", [r.host.normalised_s for r in replays]),
    ):
        print(f"host per replay, {label}: " + " ".join(f"{v:.3f}" for v in values))
    if workload.cluster:
        print(
            f"cluster: lost turns {result.lost_turns}, failed-over sessions "
            f"{result.failovers}, failover recompute tokens "
            f"{result.failover_recompute_tokens}"
        )


def run_untraced(
    workload: Workload, seed: int, seconds: float
) -> tuple[dict[str, float], int, int]:
    expected = workload.count_turns(seed)
    replays: list[Replay] = []
    result = None
    for _ in range(workload.replays(seconds)):
        rep, _target, result = replay(workload, seed, expected)
        del _target
        replays.append(rep)
    for rep in replays[1:]:
        check_same(replays[0], rep, "repeat of the same seed")
    setups = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
    describe(workload, seed, replays, expected, result)
    print("set-up samples, normalised s: " + " ".join(f"{s:.4f}" for s in setups))
    metrics = {
        "turns_per_s": replays[0].completed
        / statistics.median(r.host.normalised_s for r in replays),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        **replays[0].outcomes,
    }
    return metrics, expected * len(replays), sum(r.failed for r in replays)


def run_traced(
    workload: Workload, seed: int, seconds: float
) -> tuple[dict[str, float], int, int]:
    """Untraced replays (the traced replay costs about two, so two fewer
    than an untraced run, at least one), then one traced replay."""
    expected = workload.count_turns(seed)
    untraced: list[Replay] = []
    for _ in range(max(1, workload.replays(seconds) - 2)):
        rep, _target, _result = replay(workload, seed, expected)
        del _target, _result
        if untraced:
            check_same(untraced[0], rep, "repeat of the same seed")
        untraced.append(rep)
    inst = Instrumentation()
    inst.install()
    try:
        traced, target, result = replay(workload, seed, expected, inst)
    finally:
        inst.restore()
    check_same(untraced[0], traced, "traced vs untraced")
    describe(workload, seed, untraced + [traced], expected, result)
    untraced_s = statistics.median(r.host.normalised_s for r in untraced)
    metrics = layer_metrics(inst, target, result, traced, untraced_s, expected)
    attempted = expected * (len(untraced) + 1)
    failed = sum(r.failed for r in untraced) + traced.failed
    return metrics, attempted, failed


def layer_metrics(
    inst: Instrumentation,
    target: Target,
    result: Any,
    traced: Replay,
    untraced_s: float,
    expected: int,
) -> dict[str, float]:
    timer, probes, tracer = inst.timer, inst.probes, inst.tracer
    wall = traced.host.wall_s
    m: dict[str, float] = {}

    def timed(label: str, calls: bool = True) -> None:
        if calls:
            m[f"{label}.calls"] = timer.calls.get(label, 0)
        m[f"{label}.self_s"] = timer.self_s.get(label, 0.0)

    # store planner
    timed("store.prefetch")
    prefetch_calls = m["store.prefetch.calls"]
    m["store.prefetch.us_per_call"] = (
        1e6 * m["store.prefetch.self_s"] / prefetch_calls if prefetch_calls else 0.0
    )
    m["store.prefetch.noop_share"] = (
        probes.prefetch_noops / probes.prefetch_calls if probes.prefetch_calls else 0.0
    )
    m["store.prefetch.useful_share"] = (
        probes.prefetch_useful / probes.prefetch_issued
        if probes.prefetch_issued
        else 0.0
    )
    timed("store.policy.choose_victim")
    m["store.planner_share"] = (
        m["store.prefetch.self_s"] + m["store.policy.choose_victim.self_s"]
    ) / wall
    m["engine.cost_growth"] = probes.cost_growth()

    # sim loop and channels
    m["sim.self_s"] = traced.loop_s
    m["sim.events"] = traced.events
    m["sim.events_per_turn"] = traced.events / traced.completed
    m["sim.events_per_s"] = traced.events / untraced_s
    timed("sim.channel.transfer")

    # engine turn path and metrics
    for cont in REPORTED_CONTINUATIONS:
        timed(f"engine.{cont}")
    timed("metrics.record_turns")
    timed("metrics.summarise", calls=False)

    # store write path
    for op in REPORTED_STORE_OPS:
        timed(f"store.{op}")
    stats = [store.stats for store in target.stores()]
    for counter in STORE_COUNTERS:
        m[f"store.{counter}"] = sum(getattr(s, counter) for s in stats)

    # KV load latency
    summary = result.summary
    replicas = result.replicas if target.is_cluster else (result,)
    m["store.disk_hit_share"] = summary.disk_hit_rate
    m["engine.kv_load_exposed_s"] = tracer.kv_load_exposed_s
    m["engine.kv_load_hidden_s"] = tracer.kv_load_hidden_s
    m["sim.channel.bytes.pcie"] = sum(r.pcie_bytes for r in replicas)
    m["sim.channel.bytes.ssd"] = sum(r.ssd_bytes for r in replicas)
    end = target.sim.now
    m["sim.channel.ssd.utilisation"] = statistics.fmean(
        engine.ssd.utilisation(end) for engine in target.engines
    )

    # queue wait and GPU time split
    m.update(queue_wait(target.records()))
    m["engine.prefill_gpu_s"] = summary.prefill_gpu_time
    m["engine.decode_gpu_s"] = summary.decode_gpu_time
    m["engine.save_block_gpu_s"] = summary.save_block_time
    m["engine.decode_stall_gpu_s"] = summary.decode_stall_time
    m["engine.reused_token_share"] = (
        summary.reused_tokens_total / summary.prompt_tokens_total
    )

    # workload generation, up front or pulled lazily during the run
    m["workload.generate_s"] = traced.generate_s + timer.inclusive_s.get(
        "workload.next", 0.0
    )

    # cluster routing/migration and fault recovery (zero without a cluster)
    timed("cluster.route")
    m["cluster.home_share"] = (
        probes.routes_kept_home / probes.routes_with_home
        if probes.routes_with_home
        else 0.0
    )
    cluster = target.is_cluster
    turns = [r.summary.n_turns for r in replicas]
    m["cluster.migrations"] = result.migrations if cluster else 0
    m["cluster.net_bytes"] = result.net_bytes if cluster else 0
    m["cluster.replica_turn_imbalance"] = (
        max(turns) / statistics.fmean(turns) if cluster else 0.0
    )
    m["faults.lost_turns"] = result.lost_turns if cluster else 0
    m["faults.failovers"] = result.failovers if cluster else 0
    m["faults.failover_recompute_tokens"] = (
        result.failover_recompute_tokens if cluster else 0
    )

    # host time by layer: these plus sim.self_s must sum to trace.wall_s,
    # which fails if a timed label belongs to no roll-up
    for layer in LAYERS:
        m[f"{layer}.self_s"] = timer.layer_self_s(layer)
    covered = m["sim.self_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if abs(covered - wall) > 1e-7 * wall:
        raise BenchmarkError(
            f"sim.self_s: sim.self_s and the layer self times miss "
            f"trace.wall_s by {wall - covered:.3e} s"
        )
    m["trace.wall_s"] = wall
    m["trace.overhead"] = traced.host.normalised_s / untraced_s
    m["run.failed_turn_share"] = traced.failed / expected
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, spec_path: str) -> int:
    """Run one benchmark invocation; print the result; return the exit code."""
    with open(spec_path) as fh:
        spec = json.load(fh)
    workload = WORKLOADS.get(workload_name)
    if workload is None:
        raise SystemExit(
            f"perfbench: unknown workload {workload_name!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        values, attempted, failed = (run_traced if trace else run_untraced)(
            workload, seed, seconds
        )
        missing = [d["name"] for d in declared if d["name"] not in values]
        if missing:
            raise BenchmarkError(f"{missing[0]}: declared but not measured")
    except BenchmarkError as exc:
        print(f"perfbench: FAILED {exc}", flush=True)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics = {
        d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared
    }
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0
