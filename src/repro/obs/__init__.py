"""Observability for the CachedAttention simulator.

Two independent instruments, both zero-overhead when not attached:

* :mod:`repro.obs.spans` — a span tracer on the *simulated* clock.  The
  engine, store, channels and cluster emit nested spans for the turn
  lifecycle (queue wait, layer-wise preload, prefill compute, decode,
  async-save blocking, eviction spills, prefetches, migrations);
  :mod:`repro.obs.trace_export` renders them as Chrome-trace JSON that
  loads directly in Perfetto (``python -m repro.cli trace``).
* :mod:`repro.obs.registry` / :mod:`repro.obs.probes` — a metrics
  registry (counters, gauges, log-histograms) with per-tier store
  occupancy, channel utilisation and hit/miss/fallback rates, exported
  as stable-schema JSON or CSV.

Attaching either instrument never changes simulation results: spans and
metrics are pure observations of state the simulator computes anyway, so
traced and untraced runs are bit-identical (guarded by a property test).
Host-side timing lives outside the package, in ``perfbench/run.py
--trace 1``.
"""

from .registry import MetricsRegistry
from .probes import (
    collect_cluster_metrics,
    collect_engine_metrics,
    ingest_tracer_spans,
)
from .spans import AsyncSpan, CounterSample, Span, SpanTracer
from .trace_export import to_chrome_trace, write_chrome_trace

__all__ = [
    "AsyncSpan",
    "CounterSample",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "collect_cluster_metrics",
    "collect_engine_metrics",
    "ingest_tracer_spans",
    "to_chrome_trace",
    "write_chrome_trace",
]
