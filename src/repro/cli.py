"""Command-line interface for the CachedAttention reproduction.

Subcommands:

* ``workload``  — generate a synthetic ShareGPT-like trace (JSON).
* ``run``       — serve a trace with CA or RE and print the summary.
* ``trace``     — serve a trace with span tracing on; write Chrome-trace
  JSON loadable at https://ui.perfetto.dev.
* ``run-sweep`` — serve one config grid in parallel worker processes.
* ``compare``   — run both modes on one trace and print the comparison.
* ``capacity``  — the Section 4.3.6 provisioning analysis for a trace.
* ``models``    — list the registered model specs.

Examples::

    python -m repro.cli workload --sessions 500 --out trace.json
    python -m repro.cli run --trace trace.json --model llama-13b
    python -m repro.cli run --sessions 300 --fault-profile chaos
    python -m repro.cli run --sessions 300 --share-ratio 0.5
    python -m repro.cli run --sessions 300 --instances 4 --router affinity
    python -m repro.cli run --sessions 300 --instances 3 \
        --fault-profile chaos-cluster --sanitize
    python -m repro.cli run --sessions 50000 --streaming-metrics
    python -m repro.cli run --sessions 300 --metrics-out m.json
    python -m repro.cli trace --sessions 50 -o trace.json
    python -m repro.cli trace --sessions 200 --instances 2 \
        --router affinity -o cluster-trace.json
    python -m repro.cli run-sweep --param policy \
        --values scheduler-aware,lru,fifo --jobs 3 --sessions 300
    python -m repro.cli compare --sessions 300 --model llama-13b
    python -m repro.cli capacity --sessions 500 --model llama-13b --ttl 3600
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, NoReturn

from .analysis import (
    capacity_plan,
    cost_saving,
    format_table,
    percent,
    run_cost,
)
from .cluster import ClusterConfig, ClusterEngine, ClusterResult, RouterName
from .config import (
    EngineConfig,
    EvictionPolicyName,
    HardwareConfig,
    ServingMode,
    StoreConfig,
)
from .engine import RunResult, ServingEngine
from .faults import FAULT_PROFILES, fault_profile
from .models import MODEL_REGISTRY, GiB, ModelSpec, get_model
from .obs import (
    MetricsRegistry,
    SpanTracer,
    collect_cluster_metrics,
    collect_engine_metrics,
    ingest_tracer_spans,
    write_chrome_trace,
)
from .runner import SweepPoint, run_sweep
from .workload import Trace, WorkloadSpec, generate_trace

#: Prefix-template length behind ``--share-ratio`` (tokens).  One CLI
#: knob keeps the demo surface small; scripts that need a different
#: length or template pool build a WorkloadSpec directly.
DEFAULT_SHARE_PREFIX_LEN = 512


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CachedAttention / AttentionStore reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sharing_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--share-ratio",
            type=float,
            default=0.0,
            help="fraction of sessions whose first turn starts with a "
            f"fleet-shared prefix template ({DEFAULT_SHARE_PREFIX_LEN} "
            "tokens; served via content-addressed shared KV blocks)",
        )

    wl = sub.add_parser("workload", help="generate a synthetic trace")
    wl.add_argument("--sessions", type=int, default=1000)
    wl.add_argument("--arrival-rate", type=float, default=1.0)
    wl.add_argument("--seed", type=int, default=2024)
    wl.add_argument("--out", type=Path, required=True)
    add_sharing_args(wl)

    def add_serving_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", type=Path, help="trace JSON (else synthesised)")
        p.add_argument("--sessions", type=int, default=500)
        p.add_argument("--seed", type=int, default=2024)
        add_sharing_args(p)
        p.add_argument(
            "--model",
            default="llama-13b",
            choices=sorted(MODEL_REGISTRY),
        )
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--dram-gb", type=float, default=128.0)
        p.add_argument("--ssd-gb", type=float, default=10240.0)
        p.add_argument(
            "--policy",
            default="scheduler-aware",
            choices=[p.value for p in EvictionPolicyName],
        )
        p.add_argument("--no-prefetch", action="store_true")
        p.add_argument("--no-preload", action="store_true")
        p.add_argument("--sync-save", action="store_true")
        p.add_argument("--warmup-turns", type=int, default=0)
        p.add_argument(
            "--streaming-metrics",
            action="store_true",
            help="O(1)-memory metrics (p95 TTFT becomes a <=0.5%% estimate)",
        )
        p.add_argument(
            "--sanitize",
            action="store_true",
            help="run under SimSan: assert per-event invariants (clock "
            "monotonicity, store accounting, exactly-one-copy, HBM "
            "occupancy); equivalent to REPRO_SANITIZE=1",
        )

    def add_observability_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics-out",
            type=Path,
            default=None,
            help="write the metrics registry (stable-schema JSON, or CSV "
            "when the path ends in .csv)",
        )

    def add_topology_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", default="ca", choices=["ca", "re"])
        p.add_argument(
            "--instances",
            type=int,
            default=1,
            help="serving-engine replicas (>1 enables cluster serving)",
        )
        p.add_argument(
            "--router",
            default="affinity",
            choices=[r.value for r in RouterName],
            help="cluster session router (with --instances > 1)",
        )
        p.add_argument(
            "--fault-profile",
            default="none",
            choices=FAULT_PROFILES,
            help="inject faults (graceful-degradation demo); "
            "'chaos-cluster' additionally schedules a replica crash/"
            "restart and a graceful drain, so it requires --instances "
            "large enough to cover every scheduled replica (>= 2; the "
            "built-in schedule targets replicas 0 and 1)",
        )
        p.add_argument("--fault-seed", type=int, default=0)
        p.add_argument(
            "--no-failover",
            action="store_true",
            help="on a replica crash, park interrupted turns until the "
            "replica restarts instead of re-routing them to healthy "
            "replicas (naive-restart baseline; with --instances > 1)",
        )

    run = sub.add_parser("run", help="serve a trace")
    add_serving_args(run)
    add_topology_args(run)
    add_observability_args(run)

    tr = sub.add_parser(
        "trace",
        help="serve a trace with span tracing on; write Chrome-trace JSON "
        "for https://ui.perfetto.dev",
    )
    add_serving_args(tr)
    add_topology_args(tr)
    add_observability_args(tr)
    tr.add_argument(
        "-o",
        "--out",
        type=Path,
        required=True,
        help="output path for the Chrome-trace JSON",
    )

    sweep = sub.add_parser(
        "run-sweep",
        help="serve a grid of configs, optionally in parallel processes",
    )
    add_serving_args(sweep)
    sweep.add_argument("--mode", default="ca", choices=["ca", "re"])
    sweep.add_argument(
        "--fault-profile",
        default="none",
        choices=FAULT_PROFILES,
        help="inject storage faults (per-point fault seeds derive from "
        "--base-seed and the point key)",
    )
    sweep.add_argument("--fault-seed", type=int, default=0)
    sweep.add_argument(
        "--param",
        required=True,
        choices=sorted(SWEEP_PARAMS),
        help="which serving parameter the sweep varies",
    )
    sweep.add_argument(
        "--values",
        required=True,
        help="comma-separated values for --param, one serving run each",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = inline, the bit-identical reference)",
    )
    sweep.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help="experiment seed that per-point seeds derive from",
    )

    cmp_ = sub.add_parser("compare", help="run CA and RE on one trace")
    add_serving_args(cmp_)

    cap = sub.add_parser("capacity", help="capacity provisioning analysis")
    cap.add_argument("--trace", type=Path)
    cap.add_argument("--sessions", type=int, default=500)
    cap.add_argument("--seed", type=int, default=2024)
    cap.add_argument("--model", default="llama-13b", choices=sorted(MODEL_REGISTRY))
    cap.add_argument("--ttl", type=float, default=3600.0)

    sub.add_parser("models", help="list registered model specs")

    return parser


def _sharing_fields(args: argparse.Namespace) -> dict:
    """WorkloadSpec overrides for ``--share-ratio`` (empty at ratio 0,
    so share-free invocations build the exact pre-sharing spec)."""
    ratio = getattr(args, "share_ratio", 0.0)
    if not ratio:
        return {}
    return {
        "shared_prefix_fraction": ratio,
        "shared_prefix_len": DEFAULT_SHARE_PREFIX_LEN,
    }


def _workload_spec(args: argparse.Namespace) -> WorkloadSpec:
    """The spec of a synthesised trace; a value the spec rejects exits 2."""
    fields = {"n_sessions": args.sessions, "seed": args.seed, **_sharing_fields(args)}
    if "arrival_rate" in args:
        fields["arrival_rate"] = args.arrival_rate
    try:
        return WorkloadSpec(**fields)
    except ValueError as exc:
        _fail_on(args, exc)


def _load_trace(args: argparse.Namespace) -> Trace:
    if args.trace is not None:
        try:
            return Trace.load(args.trace)
        except (ValueError, KeyError, TypeError) as exc:
            _fail(args, f"{args.trace}: {exc}")
    return generate_trace(_workload_spec(args))


def _replica_kwargs(
    args: argparse.Namespace, mode: ServingMode
) -> tuple[ModelSpec, dict[str, Any]]:
    """The model and the per-replica constructor arguments shared by
    :class:`ServingEngine` and :class:`ClusterEngine`."""
    model = get_model(args.model)
    batch = args.batch_size or model.default_batch_size
    if mode is ServingMode.RECOMPUTE:
        engine_config = EngineConfig.recompute_baseline(batch_size=batch)
        store_config = None
    else:
        engine_config = EngineConfig(
            batch_size=batch,
            enable_preload=not args.no_preload,
            enable_async_save=not args.sync_save,
        )
        store_config = StoreConfig(
            dram_bytes=int(args.dram_gb * GiB),
            ssd_bytes=int(args.ssd_gb * GiB),
            policy=EvictionPolicyName(args.policy),
            enable_prefetch=not args.no_prefetch,
        )
    return model, {
        "hardware": HardwareConfig().for_model(model),
        "engine_config": engine_config,
        "store_config": store_config,
        "warmup_turns": args.warmup_turns,
        "fault_config": fault_profile(
            getattr(args, "fault_profile", "none"),
            seed=getattr(args, "fault_seed", 0),
        ),
        "streaming_metrics": getattr(args, "streaming_metrics", False),
        "sanitize": True if getattr(args, "sanitize", False) else None,
    }


def _build_engine(args: argparse.Namespace, mode: ServingMode) -> ServingEngine:
    model, kwargs = _replica_kwargs(args, mode)
    return ServingEngine(model, **kwargs)


def _build_cluster(args: argparse.Namespace, mode: ServingMode) -> ClusterEngine:
    model, kwargs = _replica_kwargs(args, mode)
    return ClusterEngine(
        model,
        cluster=ClusterConfig(
            n_instances=args.instances,
            router=RouterName(args.router),
            failover=not getattr(args, "no_failover", False),
        ),
        **kwargs,
    )


def _fail(args: argparse.Namespace, problem: str) -> NoReturn:
    print(f"repro {args.command}: error: {problem}", file=sys.stderr)
    raise SystemExit(2)


#: Flags whose range check lives where their value is used, keyed by the
#: parameter name that check's message starts with.
_PARAM_FLAGS = {
    "n_sessions": "--sessions",
    "arrival_rate": "--arrival-rate",
    "shared_prefix_fraction": "--share-ratio",
    "ttl_seconds": "--ttl",
}


def _fail_on(args: argparse.Namespace, exc: ValueError) -> NoReturn:
    """Exit 2 with a range error raised by a spec or analysis, naming the
    flag when the message names the flag's parameter."""
    problem = str(exc)
    flag = _PARAM_FLAGS.get(problem.split(" ", 1)[0])
    if flag is not None:
        value = getattr(args, flag[2:].replace("-", "_"))
        problem = f"{flag} {value}: {problem}"
    _fail(args, problem)


#: Numeric flags and the least value each accepts.
_FLAG_FLOORS = (
    ("sessions", 1),
    ("instances", 1),
    ("batch_size", 1),
    ("warmup_turns", 0),
    ("dram_gb", 0.0),
    ("ssd_gb", 0.0),
)


def _validate_args(args: argparse.Namespace) -> None:
    """Exit 2 naming the flag when a value is out of range, ``--trace``
    names no file, or a flag would be a silent no-op given the rest of the
    command line.  Every command that builds a trace or configs runs it."""
    for attr, floor in _FLAG_FLOORS:
        value = getattr(args, attr, None)
        if value is not None and not value >= floor:
            _fail(args, f"--{attr.replace('_', '-')} {value}: must be >= {floor}")
    trace = getattr(args, "trace", None)
    if trace is not None and not trace.is_file():
        _fail(args, f"--trace {trace}: no such file")
    profile = getattr(args, "fault_profile", "none")
    faults = fault_profile(profile, seed=getattr(args, "fault_seed", 0))
    schedule = faults.replica_schedule if faults is not None else None
    instances = getattr(args, "instances", 1)
    if schedule is not None and schedule.enabled and instances <= schedule.max_replica:
        _fail(
            args,
            f"--fault-profile {profile} schedules faults up to replica "
            f"{schedule.max_replica}; it needs --instances "
            f"{schedule.max_replica + 1} or more, got {instances}",
        )
    if trace is not None and getattr(args, "share_ratio", 0.0):
        _fail(args, "--share-ratio only shapes synthesised traces, not --trace")
    if trace is None:
        _workload_spec(args)
    if getattr(args, "instances", 2) == 1:
        if args.no_failover:
            _fail(args, "--no-failover needs --instances > 1")
        if args.router != RouterName.AFFINITY.value:
            _fail(args, f"--router {args.router} needs --instances > 1")


def _cluster_rows(result: ClusterResult) -> list[list[str]]:
    s = result.summary
    rows = [
        ["turns served", str(s.n_turns)],
        ["cache hit rate", percent(s.hit_rate)],
        ["mean TTFT (s)", f"{s.mean_ttft:.4f}"],
        ["p95 TTFT (s)", f"{s.p95_ttft:.4f}"],
        ["aggregate throughput (tok/s)", f"{result.aggregate_prefill_throughput:,.0f}"],
        ["KV migrations", str(result.migrations)],
        ["stale-copy drops", str(result.scatter_drops)],
        ["network traffic (GiB)", f"{result.net_bytes / GiB:.1f}"],
        ["makespan (h)", f"{s.makespan / 3600:.3f}"],
    ]
    if result.crashes or result.drains:
        rows += [
            ["replica crashes / restarts", f"{result.crashes} / {result.restarts}"],
            ["replica drains", str(result.drains)],
            ["turns interrupted", str(result.lost_turns)],
            ["failovers (parked)", f"{result.failovers} ({result.parked_turns})"],
            [
                "failover recompute (tok)",
                f"{result.failover_recompute_tokens:,}",
            ],
            ["total downtime (s)", f"{result.total_downtime_s:.1f}"],
        ]
    return rows


def _summary_rows(result: RunResult) -> list[list[str]]:
    s = result.summary
    return [
        ["turns served", str(s.n_turns)],
        ["cache hit rate", percent(s.hit_rate)],
        ["DRAM hit rate", percent(s.dram_hit_rate)],
        ["mean TTFT (s)", f"{s.mean_ttft:.4f}"],
        ["p95 TTFT (s)", f"{s.p95_ttft:.4f}"],
        ["prefill throughput (tok/s)", f"{s.prefill_throughput:,.0f}"],
        ["GPU time (h)", f"{s.gpu_time / 3600:.3f}"],
        ["makespan (h)", f"{s.makespan / 3600:.3f}"],
    ]


def cmd_workload(args: argparse.Namespace) -> int:
    _validate_args(args)
    trace = generate_trace(_workload_spec(args))
    trace.save(args.out)
    print(
        f"wrote {len(trace)} sessions / {trace.n_turns_total} turns / "
        f"{trace.n_tokens_total:,} tokens to {args.out}"
    )
    return 0


def _write_metrics(path: Path, registry: MetricsRegistry) -> None:
    """Export a registry as JSON (default) or CSV (``.csv`` paths)."""
    text = registry.to_csv() if path.suffix == ".csv" else registry.to_json()
    path.write_text(text)
    print(f"wrote {len(registry)} metrics to {path}")


def cmd_run(args: argparse.Namespace) -> int:
    mode = ServingMode.CACHED if args.mode == "ca" else ServingMode.RECOMPUTE
    _validate_args(args)
    trace = _load_trace(args)
    if args.instances > 1:
        cluster = _build_cluster(args, mode)
        cluster_result = cluster.run(trace)
        print(
            format_table(
                ["metric", "value"],
                _cluster_rows(cluster_result),
                title=(
                    f"{args.model} [{mode.value}] x{args.instances} "
                    f"({args.router}) on {len(trace)} sessions"
                ),
            )
        )
        if args.metrics_out is not None:
            _write_metrics(args.metrics_out, collect_cluster_metrics(cluster))
        return 0
    engine = _build_engine(args, mode)
    result = engine.run(trace)
    print(
        format_table(
            ["metric", "value"],
            _summary_rows(result),
            title=f"{args.model} [{mode.value}] on {len(trace)} sessions",
        )
    )
    if result.store_stats is not None:
        print(f"\nstore: {result.store_stats}")
    if args.fault_profile != "none" and result.store_stats is not None:
        stats = result.store_stats
        print(
            f"faults [{args.fault_profile}]: "
            f"{stats.transfer_faults} transfer faults "
            f"({stats.transfer_retries} retried), "
            f"{stats.corrupt_misses} corrupt, {stats.lost_items} lost, "
            f"{result.summary.fallbacks} recompute fallbacks, "
            f"{stats.breaker_trips} breaker trips "
            f"({stats.breaker_recoveries} recoveries)"
        )
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, collect_engine_metrics(engine))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Serve a trace with a span tracer attached and export the trace."""
    mode = ServingMode.CACHED if args.mode == "ca" else ServingMode.RECOMPUTE
    _validate_args(args)
    trace = _load_trace(args)
    tracer = SpanTracer()
    if args.instances > 1:
        cluster = _build_cluster(args, mode)
        tracer.attach_cluster(cluster)
        cluster.run(trace)
        registry = collect_cluster_metrics(cluster)
    else:
        engine = _build_engine(args, mode)
        tracer.attach_engine(engine)
        engine.run(trace)
        registry = collect_engine_metrics(engine)
    n_events = write_chrome_trace(args.out, tracer)
    print(
        f"wrote {n_events} trace events ({len(tracer.spans)} spans, "
        f"{len(tracer.counters)} counter samples, "
        f"{len(tracer.async_spans)} turn spans) to {args.out}"
    )
    print("open it at https://ui.perfetto.dev (or chrome://tracing)")
    if args.metrics_out is not None:
        ingest_tracer_spans(tracer, registry)
        _write_metrics(args.metrics_out, registry)
    return 0


# Sweepable serving parameters: CLI name -> (namespace attribute, parser).
SWEEP_PARAMS = {
    "policy": ("policy", str),
    "dram-gb": ("dram_gb", float),
    "ssd-gb": ("ssd_gb", float),
    "batch-size": ("batch_size", int),
    "sessions": ("sessions", int),
}


def _sweep_worker(point: SweepPoint, seed: int) -> RunResult:
    """Serve one sweep point (runs in a spawned worker process).

    ``point.params`` is the full serving-args namespace as a dict with the
    swept attribute already overridden.  The workload trace is rebuilt (or
    reloaded) in the worker; the fault stream, when faults are enabled,
    uses the runner-derived per-point seed so points stay independent and
    reproducible in isolation.
    """
    args = argparse.Namespace(**point.params)
    if args.fault_profile != "none":
        args.fault_seed = seed
    mode = ServingMode.CACHED if args.mode == "ca" else ServingMode.RECOMPUTE
    return _build_engine(args, mode).run(_load_trace(args))


def cmd_run_sweep(args: argparse.Namespace) -> int:
    attr, parse = SWEEP_PARAMS[args.param]
    try:
        values = [parse(v.strip()) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        _fail(args, f"--values {args.values}: {exc}")
    if not values:
        _fail(args, "--values must name at least one value")
    base = {
        k: v for k, v in vars(args).items()
        if k not in ("param", "values", "jobs", "base_seed", "command")
    }
    points = [
        SweepPoint(key=f"{args.param}={value}", params={**base, attr: value})
        for value in values
    ]
    for point in points:
        _validate_args(argparse.Namespace(command=args.command, **point.params))
    if args.trace is not None:
        _load_trace(args)  # a malformed file fails here, not in every worker
    results = run_sweep(
        _sweep_worker, points, jobs=args.jobs, base_seed=args.base_seed
    )
    rows = []
    failed = [r for r in results if not r.ok]
    for r in results:
        if not r.ok:
            rows.append([r.key, "FAILED", "-", "-", "-", "-"])
            continue
        s = r.value.summary
        rows.append(
            [
                r.key,
                percent(s.hit_rate),
                f"{s.mean_ttft:.4f}",
                f"{s.p95_ttft:.4f}",
                f"{s.prefill_throughput:,.0f}",
                f"{s.gpu_time / 3600:.3f}",
            ]
        )
    print(
        format_table(
            ["point", "hit rate", "mean TTFT", "p95 TTFT", "tok/s", "GPU (h)"],
            rows,
            title=(
                f"sweep {args.param}: {args.model} [{args.mode}] "
                f"x{len(points)} points, jobs={args.jobs}"
            ),
        )
    )
    for r in failed:
        print(f"\n--- {r.key} failed ---\n{r.error}", file=sys.stderr)
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    _validate_args(args)
    trace = _load_trace(args)
    results = {}
    for mode in (ServingMode.CACHED, ServingMode.RECOMPUTE):
        results[mode] = _build_engine(args, mode).run(trace)
    ca = results[ServingMode.CACHED]
    re = results[ServingMode.RECOMPUTE]
    rows = [
        [label, ca_val, re_val]
        for (label, ca_val), (_, re_val) in zip(
            _summary_rows(ca), _summary_rows(re)
        )
    ]
    print(
        format_table(
            ["metric", "CachedAttention", "recompute"],
            rows,
            title=f"{args.model} on {len(trace)} sessions",
        )
    )
    model = get_model(args.model)
    hardware = HardwareConfig().for_model(model)
    store = StoreConfig(
        dram_bytes=int(args.dram_gb * GiB), ssd_bytes=int(args.ssd_gb * GiB)
    )
    ca_cost = run_cost(ca, hardware, store)
    re_cost = run_cost(re, hardware, store)
    print(
        f"\nTTFT reduction {percent(1 - ca.summary.mean_ttft / re.summary.mean_ttft)}, "
        f"prefill speedup {ca.summary.prefill_throughput / re.summary.prefill_throughput:.2f}x, "
        f"cost saving {percent(cost_saving(ca_cost, re_cost))}"
    )
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    _validate_args(args)
    trace = _load_trace(args)
    model = get_model(args.model)
    try:
        plan = capacity_plan(model, trace, ttl_seconds=args.ttl)
    except ValueError as exc:
        _fail_on(args, exc)
    rows = [
        ["CCpS (GiB/session)", f"{plan.ccps_bytes / GiB:.2f}"],
        ["DSpUT (sessions/TTL)", f"{plan.dsput:.0f}"],
        ["CCpUT (GiB)", f"{plan.ccput_bytes / GiB:,.0f}"],
        ["RCC @ 0.1 (GiB)", f"{plan.rcc_bytes(0.1) / GiB:,.0f}"],
        ["RCC @ 0.25 (GiB)", f"{plan.rcc_bytes(0.25) / GiB:,.0f}"],
    ]
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"capacity plan: {model.name}, TTL {args.ttl:.0f}s",
        )
    )
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            f"{spec.n_params / 1e9:.0f}B",
            spec.n_layers,
            f"{spec.kv_bytes_per_token / 2**20:.2f}",
            spec.context_window,
            spec.default_num_gpus,
        ]
        for spec in MODEL_REGISTRY.values()
    ]
    print(
        format_table(
            ["model", "params", "layers", "KV MiB/token", "window", "GPUs"],
            rows,
            title="registered models",
        )
    )
    return 0


COMMANDS = {
    "workload": cmd_workload,
    "run": cmd_run,
    "trace": cmd_trace,
    "run-sweep": cmd_run_sweep,
    "compare": cmd_compare,
    "capacity": cmd_capacity,
    "models": cmd_models,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
