"""Tests for the model registry and configuration dataclasses."""

import pickle

import pytest

from repro.config import (
    EngineConfig,
    GPUSpec,
    HardwareConfig,
    ServingMode,
    StoreConfig,
    TruncationPolicyName,
)
from repro.models import (
    EVALUATION_MODELS,
    MODEL_REGISTRY,
    GiB,
    MiB,
    ModelSpec,
    get_model,
    register_model,
)


class TestModelSpec:
    def test_gqa_factor(self):
        assert get_model("llama-70b").gqa_factor == 8
        assert get_model("falcon-40b").gqa_factor == 16
        assert get_model("llama-13b").gqa_factor == 1

    def test_kv_dim(self):
        model = get_model("llama-70b")
        assert model.kv_dim == model.n_kv_heads * model.head_dim

    def test_kv_bytes_scales_linearly(self):
        model = get_model("llama-13b")
        assert model.kv_bytes(100) == 100 * model.kv_bytes_per_token
        assert model.kv_bytes(0) == 0

    def test_kv_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            get_model("llama-13b").kv_bytes(-1)

    def test_weight_bytes_fp16(self):
        model = get_model("llama-65b")
        assert model.weight_bytes == 2 * model.n_params

    def test_prefill_flops_dense_term(self):
        model = get_model("llama-13b")
        # Dense term dominates at zero past context.
        assert model.prefill_flops(1000, 0) >= 2.0 * model.n_params * 1000

    def test_prefill_flops_grows_with_past(self):
        model = get_model("llama-13b")
        assert model.prefill_flops(100, 4000) > model.prefill_flops(100, 0)

    def test_decode_flops_is_one_token_prefill(self):
        model = get_model("llama-13b")
        assert model.decode_flops(500) == model.prefill_flops(1, 500)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            get_model("llama-13b").prefill_flops(-1)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_heads"):
            ModelSpec(
                name="bad", n_params=1, n_layers=1, d_model=8, n_heads=3,
                n_kv_heads=2, head_dim=2, context_window=8,
            )
        with pytest.raises(ValueError, match="n_params"):
            ModelSpec(
                name="bad", n_params=0, n_layers=1, d_model=8, n_heads=2,
                n_kv_heads=2, head_dim=2, context_window=8,
            )


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_spec_pickle_round_trip(self, name):
        """Process-pool workers receive their arguments pickled."""
        spec = MODEL_REGISTRY[name]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.kv_bytes(1000) == spec.kv_bytes(1000)

    def test_known_models_present(self):
        for name in (
            "llama-7b", "llama-13b", "llama-65b", "llama-70b",
            "falcon-40b", "mistral-7b",
        ):
            assert get_model(name).name == name

    def test_unknown_model_lists_known(self):
        with pytest.raises(KeyError, match="known models"):
            get_model("gpt-17")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model(get_model("llama-13b"))

    def test_evaluation_models_are_the_papers_four(self):
        assert [m.name for m in EVALUATION_MODELS] == [
            "llama-13b", "llama-65b", "llama-70b", "falcon-40b",
        ]

    def test_context_windows_match_model_families(self):
        assert get_model("llama-65b").context_window == 2048  # LLaMA-1
        assert get_model("llama-13b").context_window == 4096  # LLaMA-2
        assert get_model("mistral-7b").context_window == 32768

    def test_paper_deployments(self):
        assert get_model("llama-13b").default_num_gpus == 2
        for name in ("llama-65b", "llama-70b", "falcon-40b"):
            assert get_model(name).default_num_gpus == 4
            assert get_model(name).default_batch_size == 24


class TestConfigValidation:
    def test_store_defaults_match_paper(self):
        store = StoreConfig()
        assert store.dram_bytes == 128 * GiB
        assert store.ssd_bytes == 10 * 1024 * GiB
        assert store.ttl_seconds is None

    def test_store_rejections(self):
        with pytest.raises(ValueError):
            StoreConfig(block_bytes=0)
        with pytest.raises(ValueError):
            StoreConfig(ttl_seconds=0.0)
        with pytest.raises(ValueError):
            StoreConfig(dram_buffer_fraction=1.0)
        with pytest.raises(ValueError):
            StoreConfig(prefetch_capacity_fraction=0.0)

    def test_engine_rejections(self):
        with pytest.raises(ValueError):
            EngineConfig(truncation_ratio=0.0)
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(read_buffer_layers=-1)
        with pytest.raises(ValueError):
            EngineConfig(decode_chunk_iters=0)
        with pytest.raises(ValueError):
            EngineConfig(prefill_efficiency_factor=0.0)

    def test_recompute_baseline_preset(self):
        cfg = EngineConfig.recompute_baseline(batch_size=12)
        assert cfg.mode is ServingMode.RECOMPUTE
        assert cfg.truncation is TruncationPolicyName.TOKEN
        assert cfg.batch_size == 12

    def test_hardware_rejections(self):
        with pytest.raises(ValueError):
            HardwareConfig(num_gpus=0)
        with pytest.raises(ValueError):
            HardwareConfig(pcie_bandwidth=0)
