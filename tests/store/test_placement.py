"""The eviction planner and its applier against literal references.

``plan_evictions`` is checked against a loop that walks a victim order and
takes one victim at a time, and ``victims_to_apply`` against its rule.  The
store, with tight DRAM and disk and no faults and SimSan installed, is
checked against a model that lives only in this file: it keeps every tier
as a dict of residents in LRU order, takes DRAM victims one at a time
through the brute-force §3.3.2 rule ``reference_victim``, applies the ones
the placement needs (none when it cannot land, only the item's room when
the headroom is out of reach), evicts disk victims one at a time as it
takes them, and prices every spill and fetch.  After every operation the
test compares each resident's tier, tokens and fetch flag, each tier's LRU
order and free blocks, the SSD bytes moved, the delta-write-back tokens
and the eviction and rejection counters.
"""

from hypothesis import given, settings, strategies as st
from test_planner_differential import reference_victim

from repro.config import StoreConfig
from repro.sanitize import for_simulator
from repro.sim import Channel, Simulator
from repro.store import (
    AttentionStore,
    KVCacheItem,
    ListQueueView,
    Tier,
    plan_prefetches,
)
from repro.store.policy import plan_evictions, victims_to_apply
from repro.store.prefetch import WindowEntry

BLOCK = 1000
KV_BYTES = 700  # per token: items straddle block boundaries
N_SESSIONS = 6
MAX_TOKENS = 14
HASHES = ("h0", "h1", "h2")


def blocks(n_bytes):
    return -(-n_bytes // BLOCK)


class TestPlanEvictions:
    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(1, 5 * BLOCK), st.booleans()), max_size=12
        ),
        free=st.integers(0, 20),
        want=st.integers(0, 40),
    )
    def test_matches_one_victim_at_a_time(self, entries, free, want):
        """Listed first or applied as yielded, the plan is the literal
        loop's: evictable items in order until ``want`` blocks are free."""
        items = [
            KVCacheItem(sid, 1, n_bytes, Tier.DRAM)
            for sid, (n_bytes, _) in enumerate(entries)
        ]
        evictable = [item for item, (_, ok) in zip(items, entries) if ok]
        expected, free_now = [], free
        for item in evictable:
            if free_now >= want:
                break
            expected.append(item)
            free_now += blocks(item.n_bytes)

        def choose(taken):
            return next((i for i in evictable if i.session_id not in taken), None)

        assert list(plan_evictions(free, want, BLOCK, choose)) == expected
        remaining = list(evictable)
        applied = []
        for victim in plan_evictions(
            free, want, BLOCK, lambda taken: remaining[0] if remaining else None
        ):
            remaining.remove(victim)
            applied.append(victim)
        assert applied == expected


class TestVictimsToApply:
    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 5 * BLOCK), max_size=8),
        free=st.integers(0, 10),
        item=st.integers(1, 20),
        headroom=st.integers(-10, 10),
    )
    def test_matches_the_rule(self, sizes, free, item, headroom):
        """No victim when the whole plan leaves the item no room, all when
        it reaches ``want``, else the shortest prefix that fits the item.
        A negative headroom stands for a ``want`` capped at a capacity the
        item exceeds: such a plan may reach ``want`` and still applies
        nothing."""
        victims = [KVCacheItem(sid, 1, n, Tier.DRAM) for sid, n in enumerate(sizes)]
        want = max(item + headroom, 0)
        reach = free + sum(blocks(n) for n in sizes)
        if reach < item:
            expected = 0
        elif reach >= want:
            expected = len(victims)
        else:
            expected, room = 0, free
            while room < item:
                room += blocks(sizes[expected])
                expected += 1
        assert victims_to_apply(free, item, want, BLOCK, victims) == expected


class ModelItem:
    def __init__(self, session_id, n_tokens, tier):
        self.session_id = session_id
        self.n_tokens = n_tokens
        self.tier = tier
        self.fetch_in_flight = False

    @property
    def n_bytes(self):
        return self.n_tokens * KV_BYTES


class ModelTier:
    """A tier as a dict of its residents in LRU order (no operation here
    touches an item, so the order is admission order)."""

    def __init__(self, capacity_bytes):
        self.total_blocks = capacity_bytes // BLOCK
        self.capacity_bytes = self.total_blocks * BLOCK
        self.items = {}

    def iter_lru(self):
        return iter(self.items.values())

    @property
    def free_blocks(self):
        used = sum(blocks(item.n_bytes) for item in self.items.values())
        return self.total_blocks - used

    def fits(self, n_bytes):
        return blocks(n_bytes) <= self.free_blocks


class Model:
    """A literal store: victims are taken one at a time, and every effect
    is written out."""

    def __init__(self, config):
        self.config = config
        self.tiers = {
            Tier.DRAM: ModelTier(config.dram_bytes),
            Tier.DISK: ModelTier(config.ssd_bytes),
        }
        self.items = {}
        self.written = {}
        self.pinned = set()
        self.blocks = {}  # content hash -> [pseudo id, refcount, tokens]
        self.refs = {}  # session id -> content hash
        self.next_pseudo = -1
        self.ssd_bytes = 0
        self.evicted_to_disk = self.evicted_out = 0
        self.save_rejections = self.register_failures = 0

    # -- bookkeeping -------------------------------------------------------
    def admit(self, item, tier):
        item.tier = tier
        self.tiers[tier].items[item.session_id] = item
        self.items[item.session_id] = item

    def remove(self, item):
        del self.tiers[item.tier].items[item.session_id]
        del self.items[item.session_id]

    def release(self, sid):
        content_hash = self.refs.pop(sid, None)
        if content_hash is not None and content_hash in self.blocks:
            self.blocks[content_hash][1] -= 1

    def drop(self, sid):
        self.release(sid)
        self.written.pop(sid, None)
        item = self.items.get(sid)
        if item is None:
            return
        self.remove(item)
        for content_hash, (pseudo, _, _) in list(self.blocks.items()):
            if pseudo == sid:
                del self.blocks[content_hash]
                for session in [s for s, h in self.refs.items() if h == content_hash]:
                    del self.refs[session]

    def exempt(self):
        referenced = {pseudo for pseudo, refs, _ in self.blocks.values() if refs > 0}
        return self.pinned | referenced

    def window_limit(self):
        total = sum(item.n_bytes for item in self.items.values())
        avg = total / len(self.items) if self.items else 2048.0 * KV_BYTES
        capacity = sum(tier.capacity_bytes for tier in self.tiers.values())
        return max(1, int(capacity / max(avg, 1.0)))

    # -- eviction, one victim at a time ------------------------------------
    def make_dram_space(self, n_bytes, queue):
        dram = self.tiers[Tier.DRAM]
        capacity = dram.capacity_bytes
        buffer = int(self.config.dram_buffer_fraction * capacity)
        target = min(n_bytes + buffer, capacity)
        if dram.free_blocks * BLOCK >= target:
            return dram.fits(n_bytes)
        # Collect the victims one at a time, none applied yet.
        exempt, window = self.exempt(), self.window_limit()
        victims, free = [], dram.free_blocks
        while free * BLOCK < target:
            victim = reference_victim(dram, queue, exempt, window)
            if victim is None:
                break
            victims.append(victim)
            exempt = exempt | {victim.session_id}
            free += blocks(victim.n_bytes)
        if free * BLOCK < target:
            # The headroom is out of reach: only the victims the item
            # needs, and none when even all of them leave it no room.
            needed, free = [], dram.free_blocks
            for victim in victims:
                if free * BLOCK >= n_bytes:
                    break
                needed.append(victim)
                free += blocks(victim.n_bytes)
            victims = needed if free * BLOCK >= n_bytes else []
        for victim in victims:
            if not self.demote(victim, queue, window):
                self.drop(victim.session_id)
                self.evicted_out += 1
        return dram.fits(n_bytes)

    def demote(self, item, queue, window):
        disk = self.tiers[Tier.DISK]
        if disk.capacity_bytes == 0:
            return False
        while not disk.fits(item.n_bytes):
            victim = reference_victim(disk, queue, self.exempt(), window)
            if victim is None:
                return False
            self.drop(victim.session_id)
            self.evicted_out += 1
        self.remove(item)
        self.admit(item, Tier.DISK)
        delta = item.n_tokens - self.written.get(item.session_id, 0)
        self.ssd_bytes += max(0, delta) * KV_BYTES
        self.written[item.session_id] = item.n_tokens
        self.evicted_to_disk += 1
        return True

    # -- operations ----------------------------------------------------------
    def save(self, sid, n_tokens, queue):
        old = self.items.get(sid)
        old_written = self.written.pop(sid, 0)
        if old is not None:
            self.remove(old)
        n_bytes = n_tokens * KV_BYTES
        dram = self.tiers[Tier.DRAM]
        if n_bytes > dram.capacity_bytes or not self.make_dram_space(n_bytes, queue):
            self.save_rejections += 1
            if old is not None:
                if self.tiers[old.tier].fits(old.n_bytes):
                    self.admit(old, old.tier)
                    if old_written:
                        self.written[sid] = old_written
                else:
                    self.evicted_out += 1
            if sid not in self.items:
                self.release(sid)
            return
        self.admit(ModelItem(sid, n_tokens, Tier.DRAM), Tier.DRAM)
        if old_written:
            self.written[sid] = min(old_written, n_tokens)

    def register(self, content_hash, n_tokens, queue):
        if content_hash in self.blocks:
            return
        n_bytes = n_tokens * KV_BYTES
        dram = self.tiers[Tier.DRAM]
        if n_bytes > dram.capacity_bytes or not self.make_dram_space(n_bytes, queue):
            self.register_failures += 1
            return
        pseudo = self.next_pseudo
        self.next_pseudo -= 1
        self.admit(ModelItem(pseudo, n_tokens, Tier.DRAM), Tier.DRAM)
        self.blocks[content_hash] = [pseudo, 0, n_tokens]

    def acquire(self, content_hash, sid):
        if content_hash not in self.blocks or self.refs.get(sid) == content_hash:
            return
        self.release(sid)
        self.refs[sid] = content_hash
        self.blocks[content_hash][1] += 1

    def prefetch(self, queue, complete):
        disk = self.tiers[Tier.DISK]
        if len(queue) == 0 or not disk.items:
            return
        dram = self.tiers[Tier.DRAM]
        pinned_bytes = sum(
            item.n_bytes for sid, item in dram.items.items() if sid in self.pinned
        )
        budget = int(
            max(0, dram.capacity_bytes - pinned_bytes)
            * self.config.prefetch_capacity_fraction
        )

        def residency(sid):
            item = self.items.get(sid)
            if item is None:
                return None
            on_disk = item.tier is Tier.DISK and not item.fetch_in_flight
            return WindowEntry(item.n_bytes, on_disk)

        total = sum(item.n_bytes for item in self.items.values())
        avg = total / len(self.items)
        issued = []
        for decision in plan_prefetches(queue, residency, budget, avg):
            item = self.items.get(decision.session_id)
            if item is None or item.tier is not Tier.DISK or item.fetch_in_flight:
                continue
            item.fetch_in_flight = True
            if not self.make_dram_space(item.n_bytes, queue):
                item.fetch_in_flight = False
                continue
            self.remove(item)
            self.admit(item, Tier.DRAM)
            self.ssd_bytes += item.n_bytes
            issued.append(item)
        if complete:
            for item in issued:
                item.fetch_in_flight = False

    def truncate(self, sid, keep):
        item = self.items.get(sid)
        content_hash = self.refs.get(sid)
        if content_hash is not None:
            prefix = self.blocks[content_hash][2]
            self.release(sid)
            if item is not None and keep > 0:
                target = min(keep, prefix + item.n_tokens)
                if target > item.n_tokens:
                    grow = blocks(target * KV_BYTES) - blocks(item.n_bytes)
                    if grow > self.tiers[item.tier].free_blocks:
                        self.drop(sid)
                        return
                    item.n_tokens = target
                    if item.tier is Tier.DISK:
                        self.written[sid] = target
                    return
                keep = target
        if item is None:
            return
        if keep <= 0:
            self.drop(sid)
            return
        if keep >= item.n_tokens:
            return
        item.n_tokens = keep
        if item.tier is Tier.DISK:
            self.written[sid] = keep
        else:
            self.written.pop(sid, None)


def assert_same(store, model):
    for tier in (Tier.DRAM, Tier.DISK):
        real = store.dram_tier if tier is Tier.DRAM else store.disk_tier
        mine = model.tiers[tier]
        assert list(real.lru_order()) == list(mine.items), tier
        assert real.free_blocks == mine.free_blocks, tier
        for sid, item in mine.items.items():
            stored = store.get(sid)
            assert stored.tier is tier, sid
            assert stored.n_tokens == item.n_tokens, sid
            assert stored.fetch_in_flight == item.fetch_in_flight, sid
    assert len(store) == len(model.items)
    assert store.ssd.bytes_moved == model.ssd_bytes
    written = {sid: store.get(sid).written_tokens for sid in store.resident_sessions()}
    assert {sid: w for sid, w in written.items() if w} == model.written
    stats = store.stats
    assert stats.evicted_to_disk == model.evicted_to_disk
    assert stats.evicted_out == model.evicted_out
    assert stats.save_rejections == model.save_rejections
    assert stats.shared_register_failures == model.register_failures


session = st.integers(0, N_SESSIONS - 1)
content = st.sampled_from(HASHES)
saves = st.tuples(st.just("save"), session, st.integers(4, MAX_TOKENS))
operation = st.one_of(
    saves,
    saves,  # twice as likely as any other operation: the tiers fill
    st.tuples(st.just("register"), content, st.integers(1, MAX_TOKENS // 2)),
    st.tuples(st.just("acquire"), content, session),
    st.tuples(st.just("release"), session, st.just(0)),
    st.tuples(st.just("pin"), session, st.just(0)),
    st.tuples(st.just("unpin"), session, st.just(0)),
    st.tuples(st.just("queue"), st.lists(session, max_size=10), st.just(0)),
    st.tuples(st.just("prefetch"), st.booleans(), st.just(0)),
    st.tuples(st.just("truncate"), session, st.integers(0, MAX_TOKENS)),
    st.tuples(st.just("drop"), session, st.just(0)),
)


class TestStoreAgainstModel:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(operation, min_size=30, max_size=100),
        dram_blocks=st.integers(6, 20),
        disk_blocks=st.sampled_from([0, 8, 16, 24]),
        buffer_fraction=st.sampled_from([0.0, 0.1, 0.25]),
        fraction=st.sampled_from([0.5, 1.0]),
    )
    def test_random_ops(self, ops, dram_blocks, disk_blocks, buffer_fraction, fraction):
        """SimSan also checks every applied plan."""
        config = StoreConfig(
            dram_bytes=dram_blocks * BLOCK,
            ssd_bytes=disk_blocks * BLOCK,
            block_bytes=BLOCK,
            dram_buffer_fraction=buffer_fraction,
            prefetch_capacity_fraction=fraction,
        )
        store = AttentionStore(config, KV_BYTES, Channel("ssd", 1e9))
        for_simulator(Simulator()).install_store(store)
        model = Model(config)
        queue = ListQueueView([])
        for step, (op, a, b) in enumerate(ops):
            now = float(step)
            if op == "save":
                store.save(a, b, now, queue=queue)
                model.save(a, b, queue)
            elif op == "register":
                store.register_shared(a, b, now, queue=queue)
                model.register(a, b, queue)
            elif op == "acquire":
                # A session reads a prefix only while it has a tail; the
                # other case, a running turn that saves before it unpins,
                # is the engine's and is not modelled here.
                if b in model.items:
                    store.acquire_shared(a, b)
                    model.acquire(a, b)
            elif op == "release":
                store.release_shared(a)
                model.release(a)
            elif op == "pin":
                store.pin(a)
                model.pinned.add(a)
            elif op == "unpin":
                store.unpin(a)
                model.pinned.discard(a)
            elif op == "queue":
                queue = ListQueueView(a)
            elif op == "prefetch":
                for sid, _ready in store.prefetch(queue, now):
                    if a:
                        store.complete_fetch(sid)
                model.prefetch(queue, a)
            elif op == "truncate":
                store.truncate(a, b)
                model.truncate(a, b)
            else:
                store.drop(a)
                model.drop(a)
            assert_same(store, model)
            store.check_invariants()
