"""Chrome-trace / Perfetto JSON export of recorded spans.

Produces the Trace Event Format understood by ``chrome://tracing`` and
https://ui.perfetto.dev: a ``traceEvents`` list of

* ``M`` metadata events naming processes (tracks: one per engine replica
  plus ``"cluster"``) and threads (lanes: ``gpu``, ``queue``, ``kv-load``,
  channel names, ``store``, ...);
* ``X`` complete events for spans (``ts``/``dur`` in microseconds of
  simulated time);
* ``C`` counter events for sampled series (per-tier store occupancy);
* ``b``/``e`` async events for whole-turn latency spans.

The schema is stable and pinned by a golden-file test: span names, the
per-phase required fields, and timestamp monotonicity (metadata first,
then all events sorted by ``ts``) are a contract downstream tooling can
rely on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .spans import SpanTracer

#: Simulated seconds -> trace microseconds.
_US = 1e6

#: Lane hosting counter events (Perfetto renders "C" events per name, the
#: tid only groups them under a thread).
COUNTER_LANE = "counters"

#: Lane hosting async whole-turn spans.
ASYNC_LANE = "turns"


def _us(t: float) -> float:
    """Simulated seconds to microseconds, rounded to sub-µs precision so
    the JSON stays compact and platform-independent."""
    return round(t * _US, 3)


def to_chrome_trace(tracers: Sequence[SpanTracer] | SpanTracer) -> dict[str, object]:
    """Render one or more tracers as a Chrome-trace JSON object.

    Multiple tracers merge into one trace; tracks with the same name merge
    into the same process (a cluster run typically uses a single tracer
    attached to every replica, so merging is the degenerate one-element
    case).
    """
    if isinstance(tracers, SpanTracer):
        tracers = [tracers]

    # Collect the track/lane universe first so pids and tids are assigned
    # deterministically (sorted order), independent of emission order.
    tracks: set[str] = set()
    lanes_by_track: dict[str, set[str]] = {}
    for tracer in tracers:
        for span in tracer.spans:
            tracks.add(span.track)
            lanes_by_track.setdefault(span.track, set()).add(span.lane)
        for sample in tracer.counters:
            tracks.add(sample.track)
            lanes_by_track.setdefault(sample.track, set()).add(COUNTER_LANE)
        for aspan in tracer.async_spans:
            tracks.add(aspan.track)
            lanes_by_track.setdefault(aspan.track, set()).add(ASYNC_LANE)

    pid_of = {track: pid for pid, track in enumerate(sorted(tracks))}
    tid_of: dict[tuple[str, str], int] = {}
    meta: list[dict[str, object]] = []
    for track in sorted(tracks):
        pid = pid_of[track]
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": track},
            }
        )
        for tid, lane in enumerate(sorted(lanes_by_track[track])):
            tid_of[(track, lane)] = tid
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )

    events: list[dict[str, object]] = []
    for tracer in tracers:
        for span in tracer.spans:
            event: dict[str, object] = {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.end - span.start),
                "pid": pid_of[span.track],
                "tid": tid_of[(span.track, span.lane)],
            }
            if span.args is not None:
                event["args"] = span.args
            events.append(event)
        for sample in tracer.counters:
            events.append(
                {
                    "name": sample.name,
                    "ph": "C",
                    "ts": _us(sample.time),
                    "pid": pid_of[sample.track],
                    "tid": tid_of[(sample.track, COUNTER_LANE)],
                    "args": dict(sample.values),
                }
            )
        for aspan in tracer.async_spans:
            common: dict[str, object] = {
                "name": aspan.name,
                "cat": aspan.cat,
                "id": aspan.id,
                "pid": pid_of[aspan.track],
                "tid": tid_of[(aspan.track, ASYNC_LANE)],
            }
            begin = dict(common, ph="b", ts=_us(aspan.start))
            if aspan.args is not None:
                begin["args"] = aspan.args
            events.append(begin)
            events.append(dict(common, ph="e", ts=_us(aspan.end)))

    # Stable, monotonic timeline: metadata first, then events by (ts,
    # emission order) — Python's sort is stable, so equal timestamps keep
    # the deterministic order they were recorded in.
    events.sort(key=_ts_of)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [*meta, *events],
    }


def _ts_of(event: dict[str, object]) -> float:
    ts = event["ts"]
    assert isinstance(ts, float)
    return ts


def write_chrome_trace(
    path: Path | str, tracers: Sequence[SpanTracer] | SpanTracer
) -> int:
    """Write the merged trace to ``path``; return the event count."""
    trace = to_chrome_trace(tracers)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
        fh.write("\n")
    trace_events = trace["traceEvents"]
    assert isinstance(trace_events, list)
    return len(trace_events)
