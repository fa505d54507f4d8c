"""Session routers for multi-instance cluster serving.

A router picks which replica serves a request.  It is consulted once per
turn: at session arrival (``home`` is None) and again after every think
time, so a policy can rebalance mid-conversation.  All routers break ties
by the lowest replica index, which keeps cluster runs deterministic.

The interesting policy is :class:`AffinityRouter` — CachedAttention's KV
caches make routing *stateful*: a session's history lives in exactly one
replica's AttentionStore, so sending the session anywhere else forfeits
the cache hit (or forces a migration over the inter-host network).

What the cluster does with a router's answer is decided by one pure
function, :func:`plan_route`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .config import ClusterConfig, RouterName
from .lifecycle import ReplicaState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.engine import ServingEngine

#: Whether the router may pick a replica (the cluster passes "is it UP").
Routable = Callable[[int], bool]


class NoRoutableReplica(LookupError):
    """Every replica is unroutable (crashed, draining or stopped)."""


class Router(ABC):
    """Picks the replica index that serves a session's next turn."""

    name: RouterName

    def __init__(self, engines: Sequence[ServingEngine], routable: Routable) -> None:
        if not engines:
            raise ValueError("a router needs at least one replica")
        self.engines = engines
        #: Replicas it rejects (down, draining or stopped) are never returned.
        self.routable = routable

    @abstractmethod
    def route(self, session_id: int, home: int | None) -> int:
        """Return the replica index for this turn.

        ``home`` is the replica that served the session's previous turn
        (None for a new session).

        Raises:
            NoRoutableReplica: when no replica is currently routable.
        """

    def least_loaded(self) -> int:
        """Index of the routable replica with the fewest queued + admitted
        tokens, lowest index winning ties (deterministic)."""
        loads = [
            (engine.load_tokens, index)
            for index, engine in enumerate(self.engines)
            if self.routable(index)
        ]
        if not loads:
            raise NoRoutableReplica("no healthy replica to route to")
        return min(loads)[1]


class RoundRobinRouter(Router):
    """Scatter requests over the replicas in strict rotation.

    Oblivious to both load and cache placement; over partitioned
    AttentionStores it sends most turns away from their KV and the hit
    rate collapses — the baseline the affinity router is measured against.
    """

    name = RouterName.ROUND_ROBIN

    _next = 0  #: the rotation's next replica

    def route(self, session_id: int, home: int | None) -> int:
        for _ in range(len(self.engines)):
            index = self._next
            self._next = (self._next + 1) % len(self.engines)
            if self.routable(index):
                return index
        raise NoRoutableReplica("no healthy replica to route to")


class LeastLoadedRouter(Router):
    """Send every request to the currently least-loaded replica.

    Balances queue depth well but ignores cache placement, so multi-turn
    sessions still wander between replicas whenever loads shift.
    """

    name = RouterName.LEAST_LOADED

    def route(self, session_id: int, home: int | None) -> int:
        return self.least_loaded()


class AffinityRouter(Router):
    """Cache-aware routing: keep a session on the replica holding its KV.

    New sessions go to the least-loaded replica.  Returning sessions go
    home — unless the home replica's load exceeds the cluster minimum by
    more than ``spill_tokens``, in which case the session spills to the
    least-loaded replica and the cluster migrates its KV cache there.
    """

    name = RouterName.AFFINITY

    def __init__(
        self,
        engines: Sequence[ServingEngine],
        routable: Routable,
        spill_tokens: int = 16384,
    ) -> None:
        super().__init__(engines, routable)
        if spill_tokens < 0:
            raise ValueError(f"spill_tokens must be >= 0, got {spill_tokens}")
        self.spill_tokens = spill_tokens

    def route(self, session_id: int, home: int | None) -> int:
        target = self.least_loaded()
        if home is None or not self.routable(home):
            # New session — or the home replica is down/draining, so
            # affinity is forfeit and the session lands wherever load is
            # lowest (its history recomputes or migrates there).
            return target
        imbalance = self.engines[home].load_tokens - self.engines[target].load_tokens
        return target if imbalance > self.spill_tokens else home


def make_router(
    name: RouterName,
    engines: Sequence[ServingEngine],
    routable: Routable,
    *,
    spill_tokens: int = 16384,
) -> Router:
    """Instantiate a router by configuration name."""
    if name is RouterName.ROUND_ROBIN:
        return RoundRobinRouter(engines, routable)
    if name is RouterName.LEAST_LOADED:
        return LeastLoadedRouter(engines, routable)
    if name is RouterName.AFFINITY:
        return AffinityRouter(engines, routable, spill_tokens=spill_tokens)
    raise ValueError(f"unknown router {name!r}")


# ----------------------------------------------------------------------
# Routing decisions
# ----------------------------------------------------------------------
class Reason(Enum):
    """Why the cluster routes a session."""

    ARRIVAL = "arrival"
    NEXT_TURN = "next turn"
    FAILOVER = "failover"
    DRAIN = "drain"


class Action(Enum):
    """What the cluster does with the session (see :func:`plan_route`)."""

    START = "start"
    STAY = "stay"
    REHOME = "re-home"
    FAILOVER = "failover"
    PARK = "park"
    RETRY = "retry"
    END_PASS = "end pass"


class Route(NamedTuple):
    """One routing decision: ``target`` serves a start, stay or re-home;
    a re-home moves the KV if ``migrate`` (else drops the old home's stale
    copy) and recomputes the history if ``failover``; a retry waits
    ``delay`` seconds."""

    action: Action
    target: int = -1
    migrate: bool = False
    failover: bool = False
    delay: float = 0.0


def plan_route(
    reason: Reason,
    state: ReplicaState | None,
    home: int | None,
    answer: int | None,
    attempt: int,
    config: ClusterConfig,
) -> Route:
    """Decide a session's routing from values alone (the table in
    DESIGN.md §7).  ``home`` holds the session (None on arrival) and is in
    ``state``; ``answer`` is the router's pick, None when no replica is
    routable.  The router is not asked for a next turn whose home is DOWN.
    """
    if reason is Reason.NEXT_TURN and state is ReplicaState.DOWN:
        return Route(Action.FAILOVER if config.failover else Action.PARK)
    if answer is None:
        if reason is Reason.DRAIN:
            return Route(Action.END_PASS)
        delay = config.failover_backoff_s
        if reason is not Reason.NEXT_TURN:
            delay = min(config.failover_backoff_cap_s, delay * 2 ** (attempt - 1))
        return Route(Action.RETRY, delay=delay)
    if reason is Reason.ARRIVAL:
        return Route(Action.START, answer)
    if answer == home:
        return Route(Action.STAY, answer)
    if reason is Reason.FAILOVER:
        return Route(Action.REHOME, answer, failover=True)
    migrate = state is ReplicaState.DRAINING or config.router is RouterName.AFFINITY
    return Route(Action.REHOME, answer, migrate=migrate)
