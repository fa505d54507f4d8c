"""Cluster migration of shared-prefix sessions.

A migrating session carries a *reference* to its shared prefix: the
private suffix item always moves, the prefix bytes ride the wire only
when the target store has no owning copy of the same content hash
(content addressing makes the second migration of that prefix free).
Cross-replica owning copies of one hash are legal — exactly-one-copy is
per store, not per cluster.
"""

from repro.cluster import ClusterConfig, ClusterEngine, RouterName
from repro.config import EngineConfig, StoreConfig
from repro.models import get_model
from repro.store import shared_prefix_hash
from repro.workload import WorkloadSpec, generate_trace

PREFIX_TOKENS = 120


def sharing_trace(n_sessions=120, rate=4.0, seed=7):
    return generate_trace(
        WorkloadSpec(
            n_sessions=n_sessions,
            arrival_rate=rate,
            seed=seed,
            shared_prefix_fraction=0.5,
            shared_prefix_len=PREFIX_TOKENS,
            n_shared_prefixes=2,
        )
    )


def build_cluster(sanitize=None, **cluster_kwargs):
    return ClusterEngine(
        get_model("llama-13b"),
        cluster=ClusterConfig(
            n_instances=4, router=RouterName.AFFINITY, **cluster_kwargs
        ),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(),
        sanitize=sanitize,
    )


class TestManualSharedMigration:
    """admit_migrated's shared re-link, driven store-to-store."""

    H = shared_prefix_hash(0, PREFIX_TOKENS, "llama-13b")

    def setup_stores(self):
        engine = build_cluster()
        source, target = engine.engines[0].store, engine.engines[1].store
        assert source is not None and target is not None
        source.register_shared(self.H, PREFIX_TOKENS, now=0.0)
        source.save(501, 800, now=0.0)
        source.acquire_shared(self.H, 501)
        return source, target

    def test_first_migration_adopts_the_prefix(self):
        source, target = self.setup_stores()
        assert source.prefix_of(501) is source._by_hash[self.H]
        item = source.extract(501)
        assert item is not None
        # Extraction drops the reference on the source; the unreferenced
        # block stays resident (plain LRU victim now, no longer pinned).
        assert source.prefix_of(501) is None
        admitted = target.admit_migrated(
            501,
            item.n_tokens,
            now=0.0,
            ready_at=42.0,
            shared_hash=self.H,
            shared_tokens=PREFIX_TOKENS,
        )
        assert admitted is not None
        assert target.prefix_of(501) is target._by_hash[self.H]
        assert target.has_shared(self.H)
        assert target.stats.shared_adoptions == 1
        # The adopted prefix is gated on the same wire transfer as the
        # suffix item: neither is usable before ready_at.
        assert admitted.dram_ready_at == 42.0
        source.check_invariants()
        target.check_invariants()

    def test_second_migration_reuses_resident_block(self):
        source, target = self.setup_stores()
        target.register_shared(self.H, PREFIX_TOKENS, now=0.0)
        source.save(502, 600, now=0.0)
        source.acquire_shared(self.H, 502)
        for sid in (501, 502):
            item = source.extract(sid)
            assert item is not None
            target.admit_migrated(
                sid,
                item.n_tokens,
                now=0.0,
                ready_at=1.0,
                shared_hash=self.H,
                shared_tokens=PREFIX_TOKENS,
            )
        # Both sessions re-linked to the one pre-existing block: no
        # adoption happened, so no prefix bytes would ride the wire.
        assert target.stats.shared_adoptions == 0
        assert len(target._by_hash) == 1
        assert target.prefix_of(501) is target._by_hash[self.H]
        assert target.prefix_of(502) is target._by_hash[self.H]
        target.check_invariants()

    def test_cross_replica_copies_are_legal(self):
        """Owning copies of one hash on two stores violate nothing —
        content addressing dedups per store, not per cluster."""
        source, target = self.setup_stores()
        target.register_shared(self.H, PREFIX_TOKENS, now=0.0)
        assert source.has_shared(self.H) and target.has_shared(self.H)
        source.check_invariants()
        target.check_invariants()


class TestEndToEndSharedMigration:
    def test_forced_spill_migrates_prefix_sessions(self):
        """A zero spill threshold forces migrations on a sharing-heavy
        trace; every replica store must stay consistent and at least one
        migration must re-link or adopt a shared prefix."""
        engine = build_cluster(affinity_spill_tokens=0)
        trace = sharing_trace()
        result = engine.run(trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.migrations > 0
        stores = [r.store for r in engine.engines if r.store is not None]
        for store in stores:
            store.check_invariants()
        assert sum(s.stats.shared_acquires for s in stores) > 0
        migrated_links = sum(
            s.stats.shared_adoptions for s in stores
        )
        relinked = any(
            s.stats.migrations_in > 0 and len(s._by_hash) > 0
            for s in stores
        )
        assert migrated_links > 0 or relinked

    def test_sharing_cluster_run_under_sanitizer(self):
        """The chaos-smoke shape at small scale: every SimSan invariant
        armed while shared-prefix sessions migrate between replicas."""
        engine = build_cluster(sanitize=True, affinity_spill_tokens=0)
        result = engine.run(sharing_trace(n_sessions=60))
        assert result.summary.hits_shared > 0
