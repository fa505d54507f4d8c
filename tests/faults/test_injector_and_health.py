"""Tests for the seeded FaultInjector and the TierHealth circuit breaker."""

from repro.faults import BreakerState, DegradedWindow, FaultConfig, FaultInjector, TierHealth


class TestFaultInjector:
    def test_same_seed_same_decision_stream(self):
        config = FaultConfig(seed=11, ssd_fault_rate=0.3, corruption_rate=0.3)
        a, b = FaultInjector(config), FaultInjector(config)
        stream_a = [a.transfer_fails("ssd", 0.0) for _ in range(50)]
        stream_a += [a.corrupts_save() for _ in range(50)]
        stream_b = [b.transfer_fails("ssd", 0.0) for _ in range(50)]
        stream_b += [b.corrupts_save() for _ in range(50)]
        assert stream_a == stream_b

    def test_different_seeds_diverge(self):
        base = dict(ssd_fault_rate=0.5)
        a = FaultInjector(FaultConfig(seed=1, **base))
        b = FaultInjector(FaultConfig(seed=2, **base))
        stream_a = [a.transfer_fails("ssd", 0.0) for _ in range(64)]
        stream_b = [b.transfer_fails("ssd", 0.0) for _ in range(64)]
        assert stream_a != stream_b

    def test_zero_rate_never_fires_and_consumes_no_rng(self):
        injector = FaultInjector(FaultConfig(seed=3))
        before = injector._rng.getstate()
        assert not any(injector.transfer_fails("ssd", 0.0) for _ in range(20))
        assert not any(injector.corrupts_save() for _ in range(20))
        assert not any(injector.loses_save() for _ in range(20))
        assert injector._rng.getstate() == before

    def test_rate_one_always_fires(self):
        injector = FaultInjector(
            FaultConfig(seed=3, ssd_fault_rate=1.0, corruption_rate=1.0, loss_rate=1.0)
        )
        assert injector.transfer_fails("ssd", 0.0)
        assert injector.corrupts_save()
        assert injector.loses_save()

    def test_per_channel_rates(self):
        injector = FaultInjector(FaultConfig(seed=3, ssd_fault_rate=1.0))
        assert injector.transfer_fails("ssd", 0.0)
        assert not injector.transfer_fails("pcie-h2d", 0.0)
        assert not injector.transfer_fails("nvlink", 0.0)

    def test_bandwidth_factor_uses_matching_windows_only(self):
        config = FaultConfig(
            degraded_windows=(
                DegradedWindow(start=0.0, duration=10.0, factor=0.2, channel="ssd"),
                DegradedWindow(start=0.0, duration=10.0, factor=0.5, channel="pcie-h2d"),
            )
        )
        injector = FaultInjector(config)
        assert injector.bandwidth_factor("ssd", 5.0) == 0.2
        assert injector.bandwidth_factor("pcie-h2d", 5.0) == 0.5
        assert injector.bandwidth_factor("pcie-d2h", 5.0) == 1.0
        assert injector.bandwidth_factor("ssd", 15.0) == 1.0


class TestTierHealth:
    def test_trips_after_threshold_consecutive_failures(self):
        health = TierHealth(threshold=3, cooldown=10.0)
        assert not health.record_failure(0.0)
        assert not health.record_failure(1.0)
        assert health.record_failure(2.0)  # third consecutive: trips
        assert health.state is BreakerState.OPEN
        assert not health.allows(5.0)

    def test_success_resets_consecutive_count(self):
        health = TierHealth(threshold=3, cooldown=10.0)
        health.record_failure(0.0)
        health.record_failure(1.0)
        health.record_success()
        assert not health.record_failure(2.0)
        assert health.state is BreakerState.CLOSED

    def test_half_open_probe_recovers(self):
        health = TierHealth(threshold=1, cooldown=10.0)
        health.record_failure(0.0)
        assert not health.allows(5.0)
        assert health.allows(10.0)  # cooldown elapsed: half-open probe
        assert health.state is BreakerState.HALF_OPEN
        assert health.record_success()
        assert health.state is BreakerState.CLOSED
        assert not health.record_success()  # already closed: no recovery
        assert health.allows(11.0)

    def test_failed_probe_reopens(self):
        health = TierHealth(threshold=1, cooldown=10.0)
        health.record_failure(0.0)
        assert health.allows(10.0)
        assert health.record_failure(10.0)  # probe fails: re-trip
        assert health.state is BreakerState.OPEN
        assert not health.allows(15.0)
        assert health.allows(20.0)  # new cooldown from the re-trip
