"""Per-layer instrumentation for the traced run, installed from outside.

Nothing here edits the program: :class:`Instrumentation` replaces public
entry points of ``sim``, ``engine``, ``store``, ``metrics``, ``cluster``
and ``faults`` at class level with wrappers, and :meth:`restore` puts the
originals back.  Two kinds of wrapper are installed:

* **timers** — a stack-based timer per entry point gives calls,
  inclusive seconds and self seconds (inclusive minus the time spent in
  wrapped callees).  Time inside a frame entered with an empty stack is
  the time the event loop spent in dispatched work; the rest of the
  traced wall time is the loop's own (``sim.self_s``).
* **probes** — deterministic counters for waste ratios: prefetch calls
  that issued nothing, prefetched sessions whose next lookup hit DRAM,
  routes that kept a session on its home replica, and completed-turn
  progress against host time (for ``engine.cost_growth``).

The engine's own ``SpanTracer`` hooks are attached too, through
:class:`AggregatingTracer`, which sums the KV-load spans as they arrive
instead of keeping them.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

from repro.cluster import AffinityRouter, ClusterEngine
from repro.engine import MetricsCollector, ServingEngine
from repro.engine import continuations
from repro.obs import SpanTracer
from repro.sim import Channel, ChannelPair
from repro.store import AttentionStore, LookupStatus, SchedulerAwarePolicy

#: The event-loop continuations the workloads dispatch (no workload sets a
#: TTL or loses a tier); each ``__call__`` is timed as
#: ``engine.<ClassName>``.
CONTINUATIONS = (
    continuations.SessionStart,
    continuations.StreamArrival,
    continuations.NextTurnTimer,
    continuations.PrefillSliceDone,
    continuations.DecodeChunkDone,
    continuations.SaveBlockDone,
    continuations.FetchDone,
)

STORE_ENTRY_POINTS = (
    "prefetch",
    "save",
    "truncate",
    "lookup",
    "lookup_shared",
    "acquire_shared",
    "register_shared",
    "release_shared",
    "complete_fetch",
    "drop",
    "extract",
    "admit_migrated",
    "wipe_volatile",
    "restore_offline",
)

#: (owner, attribute, label) of every other timed entry point; the
#: workloads use the default eviction policy and the affinity router.
#: Cluster callbacks are closures, so the cluster methods they call are
#: timed instead.
ENTRY_POINTS: tuple[tuple[type, str, str], ...] = (
    (SchedulerAwarePolicy, "choose_victim", "store.policy.choose_victim"),
    (Channel, "transfer", "sim.channel.transfer"),
    (ChannelPair, "transfer", "sim.channel.pair_transfer"),
    (MetricsCollector, "record_turns", "metrics.record_turns"),
    (MetricsCollector, "summarise", "metrics.summarise"),
    (ServingEngine, "start_session", "engine.start_session"),
    (ServingEngine, "submit_next_turn", "engine.submit_next_turn"),
    (AffinityRouter, "route", "cluster.route"),
    (ClusterEngine, "_start_arrival", "cluster.start_arrival"),
    (ClusterEngine, "_route_next_turn", "cluster.route_next_turn"),
    (ClusterEngine, "_move_kv", "cluster.move_kv"),
    (ClusterEngine, "_crash_replica", "faults.crash_replica"),
    (ClusterEngine, "_restart_replica", "faults.restart_replica"),
    (ClusterEngine, "_failover_turn", "faults.failover_turn"),
    (ServingEngine, "crash", "faults.engine_crash"),
    (ServingEngine, "restart", "faults.engine_restart"),
)

#: Self-time roll-ups by label prefix; with ``sim.self_s`` (the loop's own
#: time) they must cover every timed label and so sum to the traced wall.
LAYERS = ("sim.channel", "engine", "store", "metrics", "workload", "cluster", "faults")


class LayerTimer:
    """Calls, inclusive and self seconds per label, from a shared stack."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        #: Seconds inside frames entered with an empty stack.
        self.top_s = 0.0
        self._stack: list[float] = []

    def timed(self, label: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls
        inclusive = self.inclusive_s
        self_s = self.self_s
        calls.setdefault(label, 0)
        inclusive.setdefault(label, 0.0)
        self_s.setdefault(label, 0.0)
        stack = self._stack
        clock = time.perf_counter
        timer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[label] += 1
                inclusive[label] += elapsed
                self_s[label] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    timer.top_s += elapsed

        return wrapper

    def reset(self) -> None:
        """Zero every count (set-up is timed, but is not the measured phase)."""
        for label in self.calls:
            self.calls[label] = 0
            self.inclusive_s[label] = 0.0
            self.self_s[label] = 0.0
        self.top_s = 0.0

    @property
    def balanced(self) -> bool:
        return not self._stack

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)


class Probes:
    """Deterministic work counters gathered at the wrapped entry points."""

    def __init__(self) -> None:
        self.prefetch_calls = 0
        self.prefetch_noops = 0
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        self._prefetched: set[tuple[int, int]] = set()
        self.routes_with_home = 0
        self.routes_kept_home = 0
        self.turns_done = 0
        #: Measured wall seconds so far (set by the replay before it runs).
        self.clock: Callable[[], float] = time.perf_counter
        #: (host seconds, cumulative completed turns) per record_turns call.
        self.progress: list[tuple[float, int]] = []

    def prefetch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(store: AttentionStore, *args: Any, **kwargs: Any) -> Any:
            issued = fn(store, *args, **kwargs)
            self.prefetch_calls += 1
            if not issued:
                self.prefetch_noops += 1
            else:
                self.prefetch_issued += len(issued)
                for session_id, _ready in issued:
                    self._prefetched.add((id(store), session_id))
            return issued

        return wrapper

    def lookup(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(store: AttentionStore, session_id: int, now: float) -> Any:
            result = fn(store, session_id, now)
            key = (id(store), session_id)
            if key in self._prefetched:
                self._prefetched.discard(key)
                if result.status is LookupStatus.HIT_DRAM:
                    self.prefetch_useful += 1
            return result

        return wrapper

    def route(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(router: Any, session_id: int, home: int | None) -> int:
            index = fn(router, session_id, home)
            if home is not None:
                self.routes_with_home += 1
                if index == home:
                    self.routes_kept_home += 1
            return index

        return wrapper

    def record_turns(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(collector: MetricsCollector, records: list) -> None:
            fn(collector, records)
            self.turns_done += len(records)
            self.progress.append((self.clock(), self.turns_done))

        return wrapper

    def cost_growth(self) -> float:
        """Host µs per completed turn over the last quarter of the turns,
        divided by the same over the first quarter (``clock`` starts at 0
        with the measured phase)."""
        total = self.turns_done

        def reached(k: float) -> tuple[float, int]:
            for t, done in self.progress:
                if done >= k:
                    return t, done
            return self.progress[-1]

        t_first, n_first = reached(total / 4)
        t_last_start, n_last_start = reached(3 * total / 4)
        t_end, n_end = self.progress[-1]
        first = t_first / n_first
        last = (t_end - t_last_start) / max(1, n_end - n_last_start)
        return last / first


class AggregatingTracer(SpanTracer):
    """A ``SpanTracer`` that sums the ``preload`` spans' KV-load overlap and
    drops every span (a long replay emits hundreds of thousands)."""

    __slots__ = ("kv_load_exposed_s", "kv_load_hidden_s")

    def __init__(self) -> None:
        super().__init__()
        self.kv_load_exposed_s = 0.0
        self.kv_load_hidden_s = 0.0

    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        *,
        lane: str,
        track: str,
        args: dict[str, object] | None = None,
    ) -> None:
        if name == "preload" and args is not None:
            self.kv_load_exposed_s += float(args["exposed_s"])  # type: ignore[arg-type]
            self.kv_load_hidden_s += float(args["hidden_s"])  # type: ignore[arg-type]

    def async_span(
        self,
        name: str,
        cat: str,
        id_: str,
        start: float,
        end: float,
        *,
        track: str,
        args: dict[str, object] | None = None,
    ) -> None:
        pass

    def counter(
        self,
        name: str,
        time: float,
        *,
        track: str,
        values: tuple[tuple[str, float], ...],
    ) -> None:
        pass


class TimedStream:
    """An arrival stream whose every ``next()`` is timed as
    ``workload.next`` (the streamed workload generates during the run)."""

    def __init__(self, stream: Iterator[Any], timer: LayerTimer) -> None:
        self._next = timer.timed("workload.next", stream.__next__)

    def __iter__(self) -> "TimedStream":
        return self

    def __next__(self) -> Any:
        return self._next()


class Instrumentation:
    """Installs probes and timers on the program's classes; undone by
    :meth:`restore` (always call it, or later untraced runs are traced)."""

    def __init__(self) -> None:
        self.timer = LayerTimer()
        self.probes = Probes()
        self.tracer = AggregatingTracer()
        self._patches: list[tuple[type, str, Any]] = []

    def _patch(self, owner: type, attr: str, wrap: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        probes, timer = self.probes, self.timer
        # Probes first, so each timer also covers its probe's bookkeeping.
        self._patch(AttentionStore, "prefetch", probes.prefetch)
        self._patch(AttentionStore, "lookup", probes.lookup)
        self._patch(MetricsCollector, "record_turns", probes.record_turns)
        self._patch(AffinityRouter, "route", probes.route)
        for cls in CONTINUATIONS:
            label = f"engine.{cls.__name__}"
            self._patch(cls, "__call__", lambda fn, label=label: timer.timed(label, fn))
        for attr in STORE_ENTRY_POINTS:
            label = f"store.{attr}"
            self._patch(
                AttentionStore, attr, lambda fn, label=label: timer.timed(label, fn)
            )
        for owner, attr, label in ENTRY_POINTS:
            self._patch(owner, attr, lambda fn, label=label: timer.timed(label, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
