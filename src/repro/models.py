"""LLM specification registry.

The paper evaluates LLaMA-1-65B, LLaMA-2-13B, LLaMA-2-70B, Falcon-40B and
Mistral-7B.  The simulator only needs the *architectural* facts about each
model: parameter count (drives prefill FLOPs and weight-read bytes), layer
count and KV-head geometry (drives per-token KV-cache size), and the context
window (drives truncation behaviour).

Per-token KV sizes derived here match the numbers published in the paper
(Section 4.2): 2.5 MB for LLaMA-65B, 0.78 MB for LLaMA-13B, 0.31 MB for
LLaMA-70B (GQA factor 8) and 0.12 MB for Falcon-40B (GQA factor 16).
"""

from __future__ import annotations

from dataclasses import dataclass


MiB = 1024 * 1024
GiB = 1024 * MiB
TiB = 1024 * GiB


@dataclass(frozen=True)
class ModelSpec:
    """Architectural description of a transformer LLM.

    Attributes:
        name: canonical model name, e.g. ``"llama-13b"``.
        n_params: total parameter count.
        n_layers: number of transformer layers.
        d_model: hidden dimension.
        n_heads: number of query attention heads.
        n_kv_heads: number of key/value heads (``< n_heads`` under GQA/MQA).
        head_dim: per-head dimension.
        context_window: maximum supported context length in tokens.
        dtype_bytes: bytes per value of activations/KV (2 for FP16).
        default_num_gpus: GPUs used for this model in the paper's testbed.
        default_batch_size: continuous-batching batch size used in the paper.
    """

    name: str
    n_params: int
    n_layers: int
    d_model: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    context_window: int
    dtype_bytes: int = 2
    default_num_gpus: int = 4
    default_batch_size: int = 24

    def __post_init__(self) -> None:
        if self.n_params <= 0:
            raise ValueError(f"n_params must be positive, got {self.n_params}")
        if self.n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {self.n_layers}")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"n_heads ({self.n_heads}) must be a multiple of "
                f"n_kv_heads ({self.n_kv_heads})"
            )
        if self.context_window <= 0:
            raise ValueError(
                f"context_window must be positive, got {self.context_window}"
            )

    @property
    def gqa_factor(self) -> int:
        """Group-query-attention factor (1 for vanilla multi-head attention)."""
        return self.n_heads // self.n_kv_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K (or V) vector cached per layer per token."""
        return self.n_kv_heads * self.head_dim

    @property
    def kv_bytes_per_token(self) -> int:
        """KV-cache footprint of a single token across all layers, in bytes.

        K and V each contribute ``n_layers * kv_dim`` values.
        """
        return 2 * self.n_layers * self.kv_dim * self.dtype_bytes

    @property
    def weight_bytes(self) -> int:
        """Model weight footprint in bytes (FP16 unless overridden)."""
        return self.n_params * self.dtype_bytes

    def kv_bytes(self, n_tokens: int) -> int:
        """KV-cache footprint of ``n_tokens`` tokens, in bytes."""
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be non-negative, got {n_tokens}")
        return n_tokens * self.kv_bytes_per_token

    def prefill_flops(self, n_new: int, n_past: int = 0) -> float:
        """Approximate FLOPs to prefill ``n_new`` tokens given ``n_past``
        tokens of existing KV cache.

        Uses the standard 2 * params FLOPs/token for the dense matmuls plus
        the quadratic attention term ``2 * 2 * n_new * (n_past + n_new/2)
        * n_layers * n_heads * head_dim`` (score and value matmuls).
        """
        if n_new < 0 or n_past < 0:
            raise ValueError("token counts must be non-negative")
        dense = 2.0 * self.n_params * n_new
        attended = n_past + n_new / 2.0
        attn = 4.0 * n_new * attended * self.n_layers * self.n_heads * self.head_dim
        return dense + attn

    def decode_flops(self, n_past: int) -> float:
        """Approximate FLOPs to decode one token with ``n_past`` context."""
        return self.prefill_flops(1, n_past)


# The registry of models used in the paper's evaluation.  Geometry follows
# the published architectures; ``default_num_gpus``/``default_batch_size``
# follow Section 4.1 ("LLaMA-13B operates on two GPUs with 24 batches, while
# LLaMA-65B, LLaMA-70B, and Falcon-40B run on four GPUs, handling 24 batches
# each").
MODEL_REGISTRY: dict[str, ModelSpec] = {}


def register_model(spec: ModelSpec) -> ModelSpec:
    """Add ``spec`` to the global registry, rejecting duplicates."""
    if spec.name in MODEL_REGISTRY:
        raise ValueError(f"model {spec.name!r} already registered")
    MODEL_REGISTRY[spec.name] = spec
    return spec


def get_model(name: str) -> ModelSpec:
    """Look up a model spec by name.

    Raises:
        KeyError: with the list of known models if ``name`` is unknown.
    """
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None


LLAMA_7B = register_model(
    ModelSpec(
        name="llama-7b",
        n_params=6_700_000_000,
        n_layers=32,
        d_model=4096,
        n_heads=32,
        n_kv_heads=32,
        head_dim=128,
        context_window=2048,
        default_num_gpus=1,
        default_batch_size=16,
    )
)

LLAMA_13B = register_model(
    ModelSpec(
        name="llama-13b",
        n_params=13_000_000_000,
        n_layers=40,
        d_model=5120,
        n_heads=40,
        n_kv_heads=40,
        head_dim=128,
        context_window=4096,  # LLaMA-2
        default_num_gpus=2,
        default_batch_size=24,
    )
)

LLAMA_65B = register_model(
    ModelSpec(
        name="llama-65b",
        n_params=65_000_000_000,
        n_layers=80,
        d_model=8192,
        n_heads=64,
        n_kv_heads=64,
        head_dim=128,
        context_window=2048,  # LLaMA-1
        default_num_gpus=4,
        default_batch_size=24,
    )
)

LLAMA_70B = register_model(
    ModelSpec(
        name="llama-70b",
        n_params=70_000_000_000,
        n_layers=80,
        d_model=8192,
        n_heads=64,
        n_kv_heads=8,  # GQA factor 8
        head_dim=128,
        context_window=4096,  # LLaMA-2
        default_num_gpus=4,
        default_batch_size=24,
    )
)

FALCON_40B = register_model(
    ModelSpec(
        name="falcon-40b",
        n_params=40_000_000_000,
        n_layers=60,
        d_model=8192,
        n_heads=128,
        n_kv_heads=8,  # GQA factor 16
        head_dim=64,
        context_window=2048,
        default_num_gpus=4,
        default_batch_size=24,
    )
)

MISTRAL_7B = register_model(
    ModelSpec(
        name="mistral-7b",
        n_params=7_200_000_000,
        n_layers=32,
        d_model=4096,
        n_heads=32,
        n_kv_heads=8,
        head_dim=128,
        context_window=32768,
        default_num_gpus=1,
        default_batch_size=16,
    )
)

#: The four models used in the paper's end-to-end evaluation (Figures 13-17).
EVALUATION_MODELS: tuple[ModelSpec, ...] = (
    LLAMA_13B,
    LLAMA_65B,
    LLAMA_70B,
    FALCON_40B,
)
