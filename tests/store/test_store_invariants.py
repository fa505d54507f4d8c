"""Randomized-operation stress test for AttentionStore.check_invariants().

Drives the store through long random sequences of saves, lookups, drops,
truncations, prefetches and TTL sweeps — with and without fault injection —
and checks the internal bookkeeping invariants after every operation.
"""

import random

import pytest

from repro.config import StoreConfig
from repro.faults import FaultConfig, FaultInjector
from repro.sim import Channel
from repro.store import AttentionStore, ListQueueView, Tier

KB = 1000
N_OPS = 400
N_SESSIONS = 12


def build_store(fault_config=None, **config_overrides):
    config = StoreConfig(
        dram_bytes=60 * KB,
        ssd_bytes=200 * KB,
        block_bytes=KB,
        dram_buffer_fraction=0.1,
        **config_overrides,
    )
    injector = FaultInjector(fault_config) if fault_config is not None else None
    return AttentionStore(config, KB, Channel("ssd", 1e9), fault_injector=injector)


def run_random_ops(store: AttentionStore, rng: random.Random, n_ops: int = N_OPS):
    now = 0.0
    for _ in range(n_ops):
        now += rng.random()
        sid = rng.randrange(N_SESSIONS)
        op = rng.random()
        if op < 0.45:
            queue = ListQueueView(rng.sample(range(N_SESSIONS), rng.randrange(4)))
            # The pins stay until the next save, so later operations move
            # pinned items too.
            pinned = frozenset(rng.sample(range(N_SESSIONS), rng.randrange(3)))
            for old in store.pinned_sessions - pinned:
                store.unpin(old)
            for new in pinned:
                store.pin(new)
            store.save(sid, rng.randint(1, 40), now=now, queue=queue)
        elif op < 0.70:
            store.lookup(sid, now)
        elif op < 0.80:
            store.drop(sid)
        elif op < 0.88:
            store.truncate(sid, rng.randint(0, 30))
        elif op < 0.96:
            queue = ListQueueView(rng.sample(range(N_SESSIONS), rng.randrange(1, 5)))
            store.prefetch(queue, now=now)
        else:
            store.sweep_expired(now)
        store.check_invariants()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariants_hold_without_faults(seed):
    store = build_store()
    run_random_ops(store, random.Random(seed))
    store.check_invariants()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariants_hold_under_chaos_faults(seed):
    fault_config = FaultConfig(
        seed=seed,
        ssd_fault_rate=0.2,
        corruption_rate=0.1,
        loss_rate=0.05,
        max_retries=1,
        breaker_threshold=3,
        breaker_cooldown=5.0,
    )
    store = build_store(fault_config)
    run_random_ops(store, random.Random(seed + 100))
    store.check_invariants()


def test_invariants_hold_with_ttl_and_tier_loss():
    store = build_store(ttl_seconds=20.0)
    rng = random.Random(7)
    now = 0.0
    for step in range(N_OPS):
        now += rng.random()
        store.save(rng.randrange(N_SESSIONS), rng.randint(1, 30), now=now)
        if step % 50 == 25:
            store.lose_tier(Tier.DRAM if step % 100 == 25 else Tier.DISK)
        if step % 17 == 0:
            store.sweep_expired(now)
        store.check_invariants()


def test_check_invariants_catches_corruption_of_totals():
    store = build_store()
    store.save(1, 10, now=0.0)
    store.check_invariants()
    store._total_item_bytes += 1  # simulate a bookkeeping bug
    with pytest.raises(AssertionError):
        store.check_invariants()
