"""Streamed-replay memory: O(live sessions), not O(total sessions).

Every replay drops each session once it finishes; a
:func:`repro.workload.stream_trace` replay also generates its
conversations lazily with one arrival pending, so its peak RSS is set
by the live-session high-water mark, not by the trace length.  This bench replays 100,000 streamed sessions
and a quarter-size stream, each in its own subprocess (``ru_maxrss`` is
monotone over a process's lifetime, so sharing a process would report
whichever run peaked highest), and bounds the large run's peak RSS by
the small one's.  Takes several minutes; the nightly figure suite runs
it with ``pytest benchmarks/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

MODEL_NAME = "llama-13b"
STREAM_SESSIONS = 100_000
MAX_RSS_MB = 512

# Streaming metrics keep the collector O(1) too — the point is that
# *nothing* scales with total sessions.
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


def stream_replay_subprocess(n_sessions: int) -> dict:
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


def test_streamed_replay_memory_is_sublinear():
    big = stream_replay_subprocess(STREAM_SESSIONS)
    quarter = stream_replay_subprocess(STREAM_SESSIONS // 4)
    print()
    print(json.dumps({"sessions": STREAM_SESSIONS, **big}, indent=2))
    print(json.dumps({"sessions": STREAM_SESSIONS // 4, **quarter}, indent=2))
    # The 4x-size replay may grow a little (the live-session high-water
    # mark rises with a longer arrival window, allocator slack) but
    # nothing like linearly; the bound catches any O(total-sessions)
    # structure creeping back into the streamed path.
    assert big["sessions_retained"] == 0, big
    assert big["peak_rss_mb"] <= 1.6 * quarter["peak_rss_mb"] + 96, (big, quarter)
    assert big["peak_rss_mb"] <= MAX_RSS_MB, big
