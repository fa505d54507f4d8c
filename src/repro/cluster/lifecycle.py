"""Replica lifecycle: the crash/restart/drain state machine.

Each replica of a :class:`~repro.cluster.ClusterEngine` carries one
:class:`ReplicaLifecycle` tracking its health state and downtime
accounting.  The cluster drives transitions from the run's
:class:`~repro.faults.ReplicaFaultSchedule`; the router consults
:attr:`ReplicaLifecycle.routable` so sessions never land on a dead or
draining replica.
"""

from __future__ import annotations

from enum import Enum


class ReplicaState(str, Enum):
    """Health state of one cluster replica.

    * ``UP`` — serving and routable.
    * ``DOWN`` — crashed: volatile KV and in-flight work are gone; the
      SSD tier physically survives, offline until restart.
    * ``DRAINING`` — gracefully shutting down: no longer admitting
      sessions, migrating live ones to healthy peers.
    * ``STOPPED`` — drain complete; permanently out of rotation.
    """

    UP = "up"
    DOWN = "down"
    DRAINING = "draining"
    STOPPED = "stopped"


class ReplicaLifecycle:
    """One replica's state transitions and downtime accounting.

    Legal transitions::

        UP ──crash──▶ DOWN ──restart──▶ UP
        UP ──begin_drain──▶ DRAINING ──finish_drain──▶ STOPPED
        DRAINING ──crash──▶ DOWN      (the drain is cancelled)

    Any other transition raises ``ValueError`` — a schedule that, say,
    crashes an already-down replica is a configuration bug, not a
    degradation to model.
    """

    def __init__(self) -> None:
        self.state = ReplicaState.UP
        self.crashes = 0
        self.restarts = 0
        #: Seconds spent DOWN over completed crash/restart cycles.
        self.total_downtime = 0.0
        self.crashed_at: float | None = None
        self.drain_started_at: float | None = None

    @property
    def routable(self) -> bool:
        """Whether the router may send sessions here (UP only)."""
        return self.state is ReplicaState.UP

    def crash(self, now: float) -> None:
        if self.state not in (ReplicaState.UP, ReplicaState.DRAINING):
            raise ValueError(f"cannot crash a {self.state.value} replica")
        # A crash pre-empts a drain: the restart returns the replica to UP.
        self.drain_started_at = None
        self.state = ReplicaState.DOWN
        self.crashed_at = now
        self.crashes += 1

    def restart(self, now: float) -> None:
        if self.state is not ReplicaState.DOWN:
            raise ValueError(f"cannot restart a {self.state.value} replica")
        assert self.crashed_at is not None
        self.total_downtime += now - self.crashed_at
        self.crashed_at = None
        self.state = ReplicaState.UP
        self.restarts += 1

    def begin_drain(self, now: float) -> None:
        if self.state is not ReplicaState.UP:
            raise ValueError(f"cannot drain a {self.state.value} replica")
        self.state = ReplicaState.DRAINING
        self.drain_started_at = now

    def finish_drain(self) -> None:
        if self.state is not ReplicaState.DRAINING:
            raise ValueError(f"cannot finish draining a {self.state.value} replica")
        self.state = ReplicaState.STOPPED
