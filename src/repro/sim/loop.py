"""The discrete-event simulation loop.

Pending events live in one binary heap of ``(time, seq, callback)``
tuples.  ``seq`` is a per-simulator counter, so events at the same time
fire in the order they were scheduled, every run is reproducible, and
the callback itself is never compared.  A scheduled event always fires:
a component that must invalidate a pending continuation bumps an epoch
the continuation checks when it fires (DESIGN.md §13).
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Callable

from .clock import SimClock


class Simulator:
    """Couples a :class:`SimClock` with a time-ordered event heap.

    Components schedule work with :meth:`at` (absolute time) or :meth:`after`
    (relative delay); :meth:`run` drains the heap in ``(time, seq)`` order.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = count()
        self._events_processed = 0
        # Observation point for sanitizers (repro.sanitize): called with
        # the event's time after each executed event.
        self.event_hook: Callable[[float], None] | None = None

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        # One chained comparison rejects the past, inf and NaN alike.
        if not self.clock._now <= time < inf:
            if time < self.clock._now:
                raise ValueError(
                    f"cannot schedule in the past: {time} < now {self.now}"
                )
            raise ValueError(f"event time must be finite, got {time}")
        heappush(self._heap, (time, next(self._seq), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` seconds."""
        if not 0.0 <= delay < inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        heappush(self._heap, (self.clock._now + delay, next(self._seq), callback))

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events in ``(time, seq)`` order.

        Args:
            until: stop once the next event is later than this time (the
                clock is left at ``until``).  ``None`` drains the heap.
            max_events: safety valve; raise *before* running an event that
                would push the lifetime count past this limit.

        A raising callback is consumed; the events after it stay queued,
        so the run can resume.  ``event_hook`` is read once per call.
        """
        heap = self._heap
        clock = self.clock
        hook = self.event_hook
        limit = inf if until is None else until
        cap = inf if max_events is None else max_events
        processed = self._events_processed
        last_time = clock._now
        # Pause cyclic GC for the drain: event dispatch allocates closures
        # and records at a rate that keeps generation-0 collections firing
        # constantly, yet almost everything dies by refcount.  Cycles
        # created by callbacks are simply collected after the run (or at
        # the caller's next allocation burst).  GC timing never feeds back
        # into simulated time, so determinism is unaffected either way.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            while heap and heap[0][0] <= limit:
                if processed >= cap:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; "
                        "likely a scheduling loop"
                    )
                time, _, callback = heappop(heap)
                if time > last_time:
                    clock.advance_to(time)
                    last_time = time
                callback()
                processed += 1
                if hook is not None:
                    hook(time)
        finally:
            self._events_processed = processed
            if was_enabled:
                gc.enable()
        if until is not None and until > clock._now:
            clock.advance_to(until)
