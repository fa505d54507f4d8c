"""SimSan runtime sanitizer: detection, equivalence, activation."""

import pytest

from repro.cluster.config import ClusterConfig, RouterName
from repro.cluster.engine import ClusterEngine
from repro.config import StoreConfig
from repro.engine.engine import ServingEngine
from repro.engine.overlap import async_save_blocking_time, layerwise_prefill_time
from repro.models import MODEL_REGISTRY
from repro.sanitize import (
    SimSanError,
    check_exactly_one_copy,
    check_overlap_envelope,
    check_save_blocking_envelope,
    for_simulator,
    sanitize_enabled,
)
from repro.sim import Channel
from repro.sim.loop import Simulator
from repro.store.attention_store import AttentionStore
from repro.workload.generator import generate_trace
from repro.workload.spec import WorkloadSpec

MODEL = MODEL_REGISTRY["llama-13b"]
KB = 1000


def small_trace(n_sessions=20, seed=5):
    return generate_trace(WorkloadSpec(n_sessions=n_sessions, seed=seed))


def make_store(monkeypatch=None):
    config = StoreConfig(
        dram_bytes=40 * KB,
        ssd_bytes=160 * KB,
        block_bytes=KB,
        dram_buffer_fraction=0.0,
    )
    return AttentionStore(config, KB, Channel("ssd", 1e9))


class TestSchedulingGuards:
    def test_past_event_raises_simsan_error(self):
        sim = Simulator()
        for_simulator(sim).install()
        sim.after(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimSanError, match="past"):
            sim.at(1.0, lambda: None)

    def test_negative_delay_raises_simsan_error(self):
        sim = Simulator()
        for_simulator(sim).install()
        with pytest.raises(SimSanError, match="negative"):
            sim.after(-0.5, lambda: None)

    def test_clock_monotonicity_guard(self):
        sim = Simulator()
        simsan = for_simulator(sim)
        simsan.install()
        sim.after(2.0, lambda: None)
        sim.run()
        # Force the recorded high-water mark past the next event's time to
        # emulate a clock that ran backwards.
        simsan._last_event_time = 10.0
        sim.at(sim.now + 1.0, lambda: None)
        with pytest.raises(SimSanError, match="backwards"):
            sim.run()

    def test_installed_sim_still_runs_clean_traces(self):
        fired = []
        sim = Simulator()
        for_simulator(sim).install()
        sim.after(1.0, lambda: fired.append(1))
        sim.after(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]


class TestStoreAccounting:
    def test_corrupted_byte_accounting_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "1")
        sim = Simulator()
        simsan = for_simulator(sim)
        store = make_store()
        simsan.install_store(store)
        store.save(1, 10, now=0.0)
        # Corrupt the conservation counter behind the store's back; the
        # next mutation's invariant sweep must catch it.
        store._total_item_bytes += 1
        with pytest.raises(SimSanError, match="invariants violated after save"):
            store.save(2, 10, now=1.0)

    def test_tier_residency_corruption_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "1")
        sim = Simulator()
        simsan = for_simulator(sim)
        store = make_store()
        simsan.install_store(store)
        store.save(1, 10, now=0.0)
        # Evict the item from its tier's tracking without telling the store.
        store.dram_tier.remove(1)
        with pytest.raises(SimSanError):
            store.save(2, 10, now=1.0)

    def test_clean_mutations_pass(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "1")
        store = make_store()
        for_simulator(Simulator()).install_store(store)
        store.save(1, 10, now=0.0)
        store.save(2, 10, now=1.0)
        store.drop(1)
        assert store.get(2) is not None


class TestOneCopy:
    def test_duplicate_residency_detected(self):
        cluster = ClusterEngine(
            MODEL,
            cluster=ClusterConfig(n_instances=2, router=RouterName.AFFINITY),
        )
        s0, s1 = cluster.engines[0].store, cluster.engines[1].store
        s0.save(7, 10, now=0.0)
        s1.save(7, 10, now=0.0)
        with pytest.raises(SimSanError, match="exactly-one-copy"):
            check_exactly_one_copy(cluster.engines)

    def test_single_residency_passes(self):
        cluster = ClusterEngine(
            MODEL,
            cluster=ClusterConfig(n_instances=2, router=RouterName.AFFINITY),
        )
        cluster.engines[0].store.save(7, 10, now=0.0)
        cluster.engines[1].store.save(8, 10, now=0.0)
        check_exactly_one_copy(cluster.engines)
        check_exactly_one_copy(cluster.engines, session_id=7)


class TestOccupancy:
    def test_negative_reservation_detected(self):
        engine = ServingEngine(MODEL, sanitize=True)
        engine._hbm_reserved_tokens = -1
        engine.sim.after(0.0, lambda: None)
        with pytest.raises(SimSanError, match="HBM reservation"):
            engine.sim.run()

    def test_over_budget_reservation_detected(self):
        engine = ServingEngine(MODEL, sanitize=True)
        engine._hbm_reserved_tokens = engine._hbm_budget_tokens + 1
        engine.sim.after(0.0, lambda: None)
        with pytest.raises(SimSanError, match="HBM reservation"):
            engine.sim.run()


class TestOverlapEnvelope:
    def test_envelope_violations_raise(self):
        with pytest.raises(SimSanError):
            check_overlap_envelope(0.5, compute_time=1.0, load_time=1.0)
        with pytest.raises(SimSanError):
            check_overlap_envelope(2.5, compute_time=1.0, load_time=1.0)
        with pytest.raises(SimSanError):
            check_save_blocking_envelope(-0.1, save_time=1.0)
        with pytest.raises(SimSanError):
            check_save_blocking_envelope(1.5, save_time=1.0)

    def test_overlap_models_stay_inside_envelope(self):
        for load in (0.0, 0.4, 1.0, 3.7):
            for buffers in (0, 5, 40):
                duration = layerwise_prefill_time(40, 1.0, load, buffers)
                check_overlap_envelope(duration, 1.0, load)
        for window in (0.0, 0.5, 2.0):
            for buffers in (0, 15, 40):
                blocking = async_save_blocking_time(1.0, window, 40, buffers)
                check_save_blocking_envelope(blocking, 1.0)


class TestTurnIdentities:
    def test_sanitized_cluster_checks_every_replica_turn(self, monkeypatch):
        import repro.engine.engine as engine_module

        plan_turn = engine_module.plan_turn

        def off_by_one(*args, **kwargs):
            plan = plan_turn(*args, **kwargs)
            return plan._replace(new=plan.new + 1)

        monkeypatch.setattr(engine_module, "plan_turn", off_by_one)
        config = ClusterConfig(n_instances=2, router=RouterName.AFFINITY)
        cluster = ClusterEngine(MODEL, cluster=config, sanitize=True)
        assert all(engine.sanitized for engine in cluster.engines)
        with pytest.raises(SimSanError, match="does not add up"):
            cluster.run(small_trace())

    def test_cluster_choice_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        config = ClusterConfig(n_instances=2)
        cluster = ClusterEngine(MODEL, cluster=config, sanitize=False)
        assert not any(engine.sanitized for engine in cluster.engines)

    def test_save_of_kv_the_store_already_holds_detected(self, monkeypatch):
        # The store keeps one token more than crossed PCIe: bytes moved no
        # longer match what the store gained.
        save = AttentionStore.save

        def save_extra(self, session_id, n_tokens, *args, **kwargs):
            return save(self, session_id, n_tokens + 1, *args, **kwargs)

        monkeypatch.setattr(AttentionStore, "save", save_extra)
        with pytest.raises(SimSanError, match="saved .* bytes, expected"):
            ServingEngine(MODEL, sanitize=True).run(small_trace())

    def test_lost_gpu_busy_interval_detected(self, monkeypatch):
        from repro.engine.metrics import MetricsCollector

        record_gpu_busy = MetricsCollector.record_gpu_busy
        calls = []

        def lose_first(self, seconds):
            calls.append(seconds)
            if len(calls) > 1:
                record_gpu_busy(self, seconds)

        monkeypatch.setattr(MetricsCollector, "record_gpu_busy", lose_first)
        with pytest.raises(SimSanError, match="GPU busy"):
            ServingEngine(MODEL, sanitize=True).run(small_trace())


class TestEquivalenceAndActivation:
    def test_sanitized_run_bit_identical(self):
        trace = small_trace()
        plain = ServingEngine(MODEL).run(trace)
        sanitized = ServingEngine(MODEL, sanitize=True).run(trace)
        assert sanitized.summary == plain.summary
        assert sanitized.events_processed == plain.events_processed

    def test_sanitized_cluster_bit_identical(self):
        trace = small_trace()
        config = ClusterConfig(n_instances=2, router=RouterName.LEAST_LOADED)
        plain = ClusterEngine(MODEL, cluster=config).run(trace)
        sanitized = ClusterEngine(MODEL, cluster=config, sanitize=True).run(trace)
        assert sanitized.summary == plain.summary
        assert sanitized.scatter_drops == plain.scatter_drops

    def test_sanitized_affinity_cluster_with_faults_passes(self):
        from repro.faults import fault_profile

        trace = small_trace(n_sessions=30)
        config = ClusterConfig(n_instances=3, router=RouterName.AFFINITY)
        result = ClusterEngine(
            MODEL,
            cluster=config,
            fault_config=fault_profile("flaky-ssd", seed=3),
            sanitize=True,
        ).run(trace)
        assert result.summary.n_turns > 0

    def test_env_flag_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        engine = ServingEngine(MODEL)
        assert engine.sanitized

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        engine = ServingEngine(MODEL)
        assert not engine.sanitized
        assert engine.sim.event_hook is None
