"""``plan_route`` against a literal copy of the cluster's routing table.

The reference has one ``if`` per row of the table (DESIGN.md §7): the
reason the cluster routes, the home replica's state and the router's
answer decide a start, stay, re-home (KV moved or dropped), failover,
park, retry or end of a drain pass.  Hypothesis draws the reason, the home
state, the answer (none, the home, another replica), the router, the
failover switch, the backoff settings and the attempt number.  Draws keep
to what a run can produce: an arrival has no home, a drain's home is
DRAINING, and the router only ever answers with an UP replica.  The
cluster replays below pin what the planner cannot see: a next turn whose
home is down never asks the router, and a failover re-home drops the old
home's copy.
"""

from itertools import product

from hypothesis import event, given, settings, strategies as st

import repro.cluster.engine as cluster_engine
from repro.cluster import ClusterConfig, ClusterEngine, ReplicaState, RouterName
from repro.cluster.router import Action, Reason, Route, plan_route
from repro.config import EngineConfig, StoreConfig
from repro.faults import FaultConfig, ReplicaCrash, ReplicaFaultSchedule
from repro.models import get_model
from repro.workload import WorkloadSpec, generate_trace

HOME = 1
OTHER = 2
STATES = (
    ReplicaState.UP,
    ReplicaState.DRAINING,
    ReplicaState.DOWN,
    ReplicaState.STOPPED,
)


def doubling_backoff(config, attempt):
    delay = config.failover_backoff_s
    for _ in range(attempt - 1):
        delay = min(config.failover_backoff_cap_s, 2 * delay)
    return delay


def reference_route(reason, state, home, answer, attempt, config):
    """(row, decision): the routing table, one row per line."""
    affinity = config.router is RouterName.AFFINITY
    if reason is Reason.ARRIVAL and answer is None:
        return "arrival, none", Route(
            Action.RETRY, delay=doubling_backoff(config, attempt)
        )
    if reason is Reason.ARRIVAL:
        return "arrival, t", Route(Action.START, answer)
    if reason is Reason.NEXT_TURN and state is ReplicaState.DOWN:
        action = Action.FAILOVER if config.failover else Action.PARK
        return "next turn, down", Route(action)
    if reason is Reason.NEXT_TURN and answer is None:
        return "next turn, none", Route(
            Action.RETRY, delay=config.failover_backoff_s
        )
    if reason is Reason.NEXT_TURN and answer == home:
        return "next turn, home", Route(Action.STAY, home)
    if reason is Reason.NEXT_TURN:
        migrate = affinity or state is ReplicaState.DRAINING
        return "next turn, t", Route(Action.REHOME, answer, migrate=migrate)
    if reason is Reason.FAILOVER and answer is None:
        return "failover, none", Route(
            Action.RETRY, delay=doubling_backoff(config, attempt)
        )
    if reason is Reason.FAILOVER and answer == home:
        return "failover, home", Route(Action.STAY, home)
    if reason is Reason.FAILOVER:
        return "failover, t", Route(Action.REHOME, answer, failover=True)
    if answer is None:
        return "drain, none", Route(Action.END_PASS)
    return "drain, t", Route(Action.REHOME, answer, migrate=True)


ROWS = {
    "arrival, none",
    "arrival, t",
    "next turn, down",
    "next turn, none",
    "next turn, home",
    "next turn, t",
    "failover, none",
    "failover, home",
    "failover, t",
    "drain, none",
    "drain, t",
}


@st.composite
def routing_case(draw):
    reason = draw(st.sampled_from(Reason))
    if reason is Reason.ARRIVAL:
        state, home = None, None
    elif reason is Reason.DRAIN:
        state, home = ReplicaState.DRAINING, HOME
    else:
        state, home = draw(st.sampled_from(STATES)), HOME
    answers = [None, OTHER] + ([HOME] if state is ReplicaState.UP else [])
    answer = draw(st.sampled_from(answers))
    backoff = draw(st.sampled_from([0.25, 0.5, 1.5]))
    config = ClusterConfig(
        n_instances=3,
        router=draw(st.sampled_from(RouterName)),
        failover=draw(st.booleans()),
        failover_backoff_s=backoff,
        failover_backoff_cap_s=backoff * draw(st.sampled_from([1, 3, 16])),
    )
    attempt = draw(st.integers(min_value=1, max_value=12))
    return reason, state, home, answer, attempt, config


@settings(max_examples=600, deadline=None)
@given(routing_case())
def test_plan_route_matches_the_table(case):
    row, expected = reference_route(*case)
    event(row)
    assert plan_route(*case) == expected


def test_every_row_is_hit():
    """A sweep of the drawable space, default backoff settings, hits every
    row of the table."""
    hit = set()
    for reason in Reason:
        states = {
            Reason.ARRIVAL: [None],
            Reason.DRAIN: [ReplicaState.DRAINING],
        }.get(reason, STATES)
        home = None if reason is Reason.ARRIVAL else HOME
        for state in states:
            answers = [None, OTHER] + ([HOME] if state is ReplicaState.UP else [])
            for answer, router, failover, attempt in product(
                answers, RouterName, (True, False), (1, 2, 5)
            ):
                config = ClusterConfig(
                    n_instances=3, router=router, failover=failover
                )
                case = (reason, state, home, answer, attempt, config)
                row, expected = reference_route(*case)
                assert plan_route(*case) == expected
                hit.add(row)
    assert hit == ROWS


MODEL = get_model("llama-13b")
MiB = 1 << 20


def test_down_home_next_turn_does_not_ask_the_router(monkeypatch):
    plans = []
    real_plan = cluster_engine.plan_route

    def recording_plan(reason, state, home, answer, attempt, config):
        plans.append((reason, state))
        return real_plan(reason, state, home, answer, attempt, config)

    monkeypatch.setattr(cluster_engine, "plan_route", recording_plan)
    schedule = ReplicaFaultSchedule(
        crashes=(ReplicaCrash(at=30.0, replica=1, downtime=45.0),)
    )
    trace = generate_trace(WorkloadSpec(n_sessions=80, arrival_rate=4.0, seed=7))
    cluster = ClusterEngine(
        MODEL,
        ClusterConfig(n_instances=3, router=RouterName.ROUND_ROBIN),
        engine_config=EngineConfig(batch_size=8),
        fault_config=FaultConfig(seed=3, replica_schedule=schedule),
    )
    real_route = cluster.router.route
    asked = []

    def recording_route(session_id, home):
        if home is not None:
            asked.append(cluster.lifecycles[home].state)
        return real_route(session_id, home)

    cluster.router.route = recording_route
    result = cluster.run(trace)
    assert result.summary.n_turns == trace.n_turns_total
    assert (Reason.NEXT_TURN, ReplicaState.DOWN) in plans
    assert ReplicaState.DOWN not in asked


def test_failover_after_the_home_restarted_drops_its_copy():
    """Both replicas crash, so the orphaned turns retry until one is back.
    A turn whose home restarted (re-admitting its SSD copy) but that the
    router sends to the other replica must not leave that copy behind;
    SimSan's exactly-one-copy check would fail the run."""
    schedule = ReplicaFaultSchedule(
        crashes=(
            ReplicaCrash(at=30.0, replica=0, downtime=9.5),
            ReplicaCrash(at=30.2, replica=1, downtime=9.0),
        )
    )
    trace = generate_trace(WorkloadSpec(n_sessions=80, arrival_rate=4.0, seed=3))
    cluster = ClusterEngine(
        MODEL,
        ClusterConfig(n_instances=2),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=800 * MiB),
        fault_config=FaultConfig(seed=3, replica_schedule=schedule),
        sanitize=True,
    )
    result = cluster.run(trace)
    assert result.summary.n_turns == trace.n_turns_total
    assert result.failover_retries > 0
    # The affinity router never scatter-drops: these are the fix's drops.
    assert cluster.engines[0].store.stats.scatter_drops > 0
