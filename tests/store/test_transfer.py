"""``AttentionStore.transfer``, the one retry loop, against a literal reference.

Every KV move goes through it: the engine's PCIe loads and saves and its
disk loads, and the store's spills and prefetches.  The links are a real
engine's: the SSD channel, the SSD -> PCIe disk path and both PCIe
directions.  A scripted fault hook fails the attempts its per-channel
script says.  The reference is a plain loop with a breaker of its own: it
refuses a link that carries the SSD while the breaker is open (half-opening
it once the cooldown has passed), counts and retries every fault with
capped backoff, lets only an SSD fault count toward a trip, and lets only
a success on a link that carries the SSD close the breaker.  It runs on a
twin engine's links with the same scripts; after every transfer the test
compares the completion time, the store's fault counters and the breaker's
state.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import ServingEngine
from repro.faults import FaultConfig
from repro.models import get_model
from repro.sim import FaultyTransfer

CHANNELS = ("ssd", "pcie-h2d", "pcie-d2h")
LINKS = ("ssd", "disk", "h2d", "d2h")
CARRIES_SSD = ("ssd", "disk")
GB = 10**9


class ScriptedFaults:
    """A channel fault hook: each channel's attempts fail as its script
    says, and succeed once the script runs out."""

    def __init__(self, scripts: dict[str, list[bool]]) -> None:
        self.scripts = {channel: list(script) for channel, script in scripts.items()}

    def transfer_fails(self, channel: str, now: float) -> bool:
        script = self.scripts[channel]
        return script.pop(0) if script else False

    def bandwidth_factor(self, channel: str, now: float) -> float:
        return 1.0


def build(config: FaultConfig, scripts: dict[str, list[bool]]) -> ServingEngine:
    engine = ServingEngine(get_model("llama-13b"), fault_config=config)
    hook = ScriptedFaults(scripts)
    for channel in (engine.ssd, engine.pcie_h2d, engine.pcie_d2h):
        channel.fault_hook = hook
    return engine


def links_of(engine: ServingEngine) -> dict:
    return {
        "ssd": engine.store.ssd,
        "disk": engine.disk_path,
        "h2d": engine.pcie_h2d,
        "d2h": engine.pcie_d2h,
    }


class Reference:
    """The transfer rule and the SSD breaker, written out."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.faults = self.retries = self.trips = self.recoveries = 0

    def transfer(self, link, carries_ssd: bool, start: float, n_bytes: int):
        fc = self.config
        if carries_ssd and self.state == "open":
            if start - self.opened_at < fc.breaker_cooldown:
                return None
            self.state = "half-open"
        attempt = 0
        while True:
            try:
                done = link.transfer(start, n_bytes)
            except FaultyTransfer as fault:
                self.faults += 1
                if fault.channel == "ssd":
                    self.failures += 1
                    if self.state == "half-open" or (
                        self.state == "closed" and self.failures >= fc.breaker_threshold
                    ):
                        self.state = "open"
                        self.opened_at = start
                        self.trips += 1
                        return None
                if attempt == fc.max_retries:
                    return None
                attempt += 1
                self.retries += 1
                delay = min(fc.retry_backoff_cap, fc.retry_backoff * 2**(attempt - 1))
                start = max(start, fault.busy_until) + delay
                continue
            if carries_ssd:
                self.failures = 0
                if self.state != "closed":
                    self.state = "closed"
                    self.recoveries += 1
            return done


class TestTransfer:
    @settings(max_examples=300, deadline=None)
    @given(
        scripts=st.fixed_dictionaries(
            {channel: st.lists(st.booleans(), max_size=30) for channel in CHANNELS}
        ),
        max_retries=st.integers(0, 3),
        threshold=st.integers(1, 4),
        cooldown=st.sampled_from([0.5, 2.0, 10.0]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(LINKS),
                st.floats(0.0, 4.0),
                st.integers(0, 4 * GB),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_matches_the_reference(
        self, scripts, max_retries, threshold, cooldown, ops
    ):
        config = FaultConfig(
            ssd_fault_rate=0.5,
            max_retries=max_retries,
            breaker_threshold=threshold,
            breaker_cooldown=cooldown,
        )
        engine, twin = build(config, scripts), build(config, scripts)
        assert engine.disk_path.first is engine.store.ssd
        store, health = engine.store, engine.store.ssd_health
        links, twin_links = links_of(engine), links_of(twin)
        ref = Reference(config)
        now = 0.0
        for name, gap, n_bytes in ops:
            now += gap
            done = store.transfer(links[name], now, n_bytes)
            expected = ref.transfer(twin_links[name], name in CARRIES_SSD, now, n_bytes)
            assert done == expected, (name, now)
            stats = store.stats
            assert (
                stats.transfer_faults,
                stats.transfer_retries,
                stats.breaker_trips,
                stats.breaker_recoveries,
            ) == (ref.faults, ref.retries, ref.trips, ref.recoveries), (name, now)
            assert health.state.value == ref.state, (name, now)
            assert health.consecutive_failures == ref.failures, (name, now)
