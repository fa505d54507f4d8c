"""Config objects reject nonsensical values at construction (satellite of
the fault-injection PR: bad configs should fail fast, not corrupt a run)."""

import pytest

from repro.config import (
    EngineConfig,
    GPUSpec,
    HardwareConfig,
    StoreConfig,
)


class TestGPUSpec:
    def test_defaults_valid(self):
        GPUSpec()

    @pytest.mark.parametrize("attr", ["peak_flops", "hbm_bytes", "hbm_bandwidth"])
    def test_capabilities_must_be_positive(self, attr):
        with pytest.raises(ValueError):
            GPUSpec(**{attr: 0})
        with pytest.raises(ValueError):
            GPUSpec(**{attr: -1})

    @pytest.mark.parametrize("attr", ["mfu", "mbu"])
    def test_utilisations_are_fractions(self, attr):
        with pytest.raises(ValueError):
            GPUSpec(**{attr: 0.0})
        with pytest.raises(ValueError):
            GPUSpec(**{attr: 1.5})
        GPUSpec(**{attr: 1.0})  # boundary is inclusive


class TestHardwareConfig:
    def test_defaults_valid(self):
        HardwareConfig()

    def test_num_gpus_positive(self):
        with pytest.raises(ValueError):
            HardwareConfig(num_gpus=0)

    @pytest.mark.parametrize("attr", ["pcie_bandwidth", "ssd_bandwidth"])
    def test_bandwidths_positive(self, attr):
        with pytest.raises(ValueError):
            HardwareConfig(**{attr: 0.0})

    @pytest.mark.parametrize("attr", ["dram_bytes", "ssd_bytes"])
    def test_capacities_non_negative(self, attr):
        with pytest.raises(ValueError):
            HardwareConfig(**{attr: -1})
        HardwareConfig(**{attr: 0})  # zero-sized tiers are allowed


class TestStoreConfig:
    def test_defaults_valid(self):
        StoreConfig()

    def test_block_bytes_positive(self):
        with pytest.raises(ValueError):
            StoreConfig(block_bytes=0)

    @pytest.mark.parametrize("attr", ["dram_bytes", "ssd_bytes", "hbm_cache_bytes"])
    def test_capacities_non_negative(self, attr):
        with pytest.raises(ValueError):
            StoreConfig(**{attr: -1})

    def test_ttl_positive_or_none(self):
        with pytest.raises(ValueError):
            StoreConfig(ttl_seconds=0.0)
        StoreConfig(ttl_seconds=None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["ttl_seconds", "dram_buffer_fraction", "prefetch_capacity_fraction"],
    )
    def test_non_finite_float_rejected(self, field, value):
        # A NaN TTL used to pass validation and silently disable expiry.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StoreConfig(**{field: value})

    def test_fractions_bounded(self):
        with pytest.raises(ValueError):
            StoreConfig(dram_buffer_fraction=1.0)
        with pytest.raises(ValueError):
            StoreConfig(dram_buffer_fraction=-0.1)
        with pytest.raises(ValueError):
            StoreConfig(prefetch_capacity_fraction=0.0)
        with pytest.raises(ValueError):
            StoreConfig(prefetch_capacity_fraction=1.1)


class TestEngineConfig:
    def test_defaults_valid(self):
        EngineConfig()

    def test_batch_size_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)

    def test_truncation_ratio_open_interval(self):
        with pytest.raises(ValueError):
            EngineConfig(truncation_ratio=0.0)
        with pytest.raises(ValueError):
            EngineConfig(truncation_ratio=1.0)

    def test_buffer_layers_non_negative(self):
        with pytest.raises(ValueError):
            EngineConfig(read_buffer_layers=-1)
        with pytest.raises(ValueError):
            EngineConfig(write_buffer_layers=-1)

    def test_decode_chunk_iters_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(decode_chunk_iters=0)

    def test_prefill_efficiency_factor_bounded(self):
        with pytest.raises(ValueError):
            EngineConfig(prefill_efficiency_factor=0.0)
        with pytest.raises(ValueError):
            EngineConfig(prefill_efficiency_factor=1.5)
