"""Host time normalised by an interleaved reference kernel.

The benchmark runs on shared machines whose speed changes under it: on
the 2-core x86 container it was built on, a fixed 10 ms Python kernel ran
at 1.0× and at 2× its fastest time in stretches of several seconds, and
the CPU time of one replay moved by 35% within a single run.  Such
slowdowns reach every piece of Python on the core, so the measured calls
are timed together with a fixed reference kernel that runs between them,
and host times are reported rescaled to a host on which one kernel call
takes :data:`REFERENCE_S` CPU seconds::

    normalised_s = cpu_s * REFERENCE_S / (mean CPU s of one kernel call)

The kernel uses only the interpreter and the standard library, so a
change to the program under test cannot speed it up or slow it down.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Callable

#: CPU seconds one reference-kernel call is rescaled to (about its cost on
#: a quiet host of the container the benchmark was built on).
REFERENCE_S = 1e-3
#: Measured CPU seconds between reference-kernel calls.
CALIBRATE_EVERY_S = 0.05
_RING = 4096


class _Node:
    __slots__ = ("next", "key", "value")


def _ring() -> _Node:
    """A ring of nodes linked in a shuffled order (fixed by its own seed)."""
    nodes = [_Node() for _ in range(_RING)]
    order = list(range(_RING))
    random.Random(0).shuffle(order)
    for position, index in enumerate(order):
        node = nodes[index]
        node.next = nodes[order[(position + 1) % _RING]]
        node.key = position & 1023
        node.value = position * 0.5
    return nodes[0]


_HEAD = _ring()


def reference_kernel() -> None:
    """Fixed interpreter work: a walk around a shuffled ring of slotted
    nodes, reading attributes and summing into a dict.  It allocates no
    objects the garbage collector tracks beyond one dict; a kernel that
    did would set off collections of the program's heap and time those."""
    node = _HEAD
    sums: dict[int, float] = {}
    for _ in range(_RING):
        node = node.next
        sums[node.key] = sums.get(node.key, 0.0) + node.value


class HostClock:
    """CPU and wall time of measured calls, plus the CPU time of the
    reference-kernel calls made between them."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.wall_s = 0.0  # measured calls only, kernel calls excluded
        self.ref_cpu_s = 0.0
        self.ref_calls = 0
        self._calibrate_at = 0.0
        self._wall0: float | None = None

    def calibrate(self, calls: int = 1) -> None:
        """Time ``calls`` kernel calls, with the garbage collector off so
        that no collection of the program's heap is charged to them."""
        clock = time.process_time
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(calls):
                start = clock()
                reference_kernel()
                self.ref_cpu_s += clock() - start
        finally:
            if enabled:
                gc.enable()
        self.ref_calls += calls
        self._calibrate_at = self.cpu_s + CALIBRATE_EVERY_S

    def measure(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Return ``fn(*args)``, timed; a kernel call runs first whenever
        :data:`CALIBRATE_EVERY_S` of measured CPU time has passed."""
        if self.cpu_s >= self._calibrate_at:
            self.calibrate()
        cpu0 = time.process_time()
        self._wall0 = wall0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.wall_s += time.perf_counter() - wall0
            self.cpu_s += time.process_time() - cpu0
            self._wall0 = None

    def measured_wall(self) -> float:
        """Wall seconds measured so far, the running call's included."""
        if self._wall0 is None:
            return self.wall_s
        return self.wall_s + time.perf_counter() - self._wall0

    @property
    def normalised_s(self) -> float:
        return self.cpu_s * REFERENCE_S * self.ref_calls / self.ref_cpu_s
