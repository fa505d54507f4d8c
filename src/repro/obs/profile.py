"""Host-side event-loop profiling (wall clock, sampled).

The simulator is deterministic on *simulated* time, but its host-side
cost — how many events per second the Python loop actually executes —
is what sweep wall-clock budgets are made of.  An
:class:`EventLoopProfiler` installs into ``Simulator.profiler`` and
wraps every event dispatch: it always counts events per callback
``__qualname__``, and times every ``sample_every``-th one with
``time.perf_counter`` so the steady-state overhead stays a couple of
percent.

Wall-clock reads here are deliberate and justified: they measure the
*host* cost of the loop and never enter simulated state, so profiled
runs remain bit-identical to unprofiled runs (the dispatch order and
the callbacks' arguments are untouched).  The determinism linter's
``wall-clock`` rule is suppressed line-by-line with that rationale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..analysis.report import format_table

if TYPE_CHECKING:
    from ..sim.loop import Simulator


@dataclass(frozen=True, slots=True)
class ProfileRow:
    """Estimated host cost of one event-callback type."""

    name: str
    count: int
    sampled: int
    mean_us: float
    est_total_s: float
    share: float


@dataclass(frozen=True, slots=True)
class ProfileReport:
    """Aggregate host-side cost of one simulation run."""

    wall_s: float
    n_events: int
    events_per_s: float
    sample_every: int
    rows: tuple[ProfileRow, ...]

    def format(self) -> str:
        """Aligned text table, costliest callback types first."""
        header = (
            f"event loop: {self.n_events} events in {self.wall_s:.3f}s wall "
            f"({self.events_per_s:,.0f} events/s, sampled 1/{self.sample_every})"
        )
        table = format_table(
            ("callback", "count", "sampled", "mean µs", "est total s", "share"),
            [
                (
                    row.name,
                    row.count,
                    row.sampled,
                    f"{row.mean_us:.2f}",
                    f"{row.est_total_s:.4f}",
                    f"{row.share * 100:.1f}%",
                )
                for row in self.rows
            ],
        )
        return f"{header}\n{table}"


class EventLoopProfiler:
    """Counts every event and samples wall-clock cost per callback type."""

    __slots__ = (
        "sample_every",
        "_counts",
        "_sampled",
        "_sampled_s",
        "_n_events",
        "_wall_start",
    )

    def __init__(self, sample_every: int = 16) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self._counts: dict[str, int] = {}
        self._sampled: dict[str, int] = {}
        self._sampled_s: dict[str, float] = {}
        self._n_events = 0
        self._wall_start: float | None = None

    def install(self, sim: "Simulator") -> None:
        """Attach to a simulator; its loop hands every event to us."""
        sim.profiler = self
        self._wall_start = time.perf_counter()  # repro-lint: allow=wall-clock (host-side profiling only; never enters simulated state)

    def run_event(self, callback: Callable[[], None]) -> None:
        """Run one event's callback, counting it and occasionally timing it.

        The callback runs exactly once either way; only the bookkeeping
        around it differs, so simulated state is untouched.
        """
        name = getattr(callback, "__qualname__", None) or type(callback).__name__
        self._counts[name] = self._counts.get(name, 0) + 1
        self._n_events += 1
        if self._n_events % self.sample_every:
            callback()
            return
        start = time.perf_counter()  # repro-lint: allow=wall-clock (host-side profiling only; never enters simulated state)
        callback()
        elapsed = time.perf_counter() - start  # repro-lint: allow=wall-clock (host-side profiling only; never enters simulated state)
        self._sampled[name] = self._sampled.get(name, 0) + 1
        self._sampled_s[name] = self._sampled_s.get(name, 0.0) + elapsed

    def report(self) -> ProfileReport:
        """Summarise what ran so far (callable mid-run or after)."""
        if self._wall_start is None:
            wall = 0.0
        else:
            wall = time.perf_counter() - self._wall_start  # repro-lint: allow=wall-clock (host-side profiling only; never enters simulated state)
        estimates: dict[str, tuple[float, float]] = {}
        for name, count in self._counts.items():
            sampled = self._sampled.get(name, 0)
            mean_s = self._sampled_s.get(name, 0.0) / sampled if sampled else 0.0
            estimates[name] = (mean_s, mean_s * count)
        total_est = sum(est for _, est in estimates.values())
        rows = tuple(
            sorted(
                (
                    ProfileRow(
                        name=name,
                        count=count,
                        sampled=self._sampled.get(name, 0),
                        mean_us=estimates[name][0] * 1e6,
                        est_total_s=estimates[name][1],
                        share=estimates[name][1] / total_est if total_est else 0.0,
                    )
                    for name, count in self._counts.items()
                ),
                key=lambda row: (-row.est_total_s, row.name),
            )
        )
        return ProfileReport(
            wall_s=wall,
            n_events=self._n_events,
            events_per_s=self._n_events / wall if wall > 0 else 0.0,
            sample_every=self.sample_every,
            rows=rows,
        )
