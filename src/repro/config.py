"""Run configuration for the serving simulator.

Three dataclasses describe a run:

* :class:`HardwareConfig` — the testbed (GPUs, interconnect, host memory,
  disks).  Defaults mirror the paper's testbed: 4 NVIDIA A100-80GB GPUs,
  PCIe Gen4 x16 at 26 GB/s effective, 128 GB DRAM, 10 TB SSD.
* :class:`StoreConfig` — AttentionStore sizing and policy knobs.
* :class:`EngineConfig` — serving-engine behaviour (mode, batching,
  truncation, overlap optimisations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

from .models import GiB, MiB, TiB, ModelSpec


@dataclass(frozen=True)
class GPUSpec:
    """A single GPU's capabilities.

    Defaults describe an NVIDIA A100-80GB: 312 TFLOPS dense FP16, 80 GB HBM
    at ~2 TB/s.  ``mfu`` is the model-FLOPs-utilisation achieved in practice;
    0.58 calibrates the roofline model so prefilling 2K tokens of LLaMA-65B
    on 4 GPUs takes ~360 ms as reported in Section 2.4 of the paper.
    """

    name: str = "a100-80g"
    peak_flops: float = 312e12
    hbm_bytes: int = 80 * GiB
    hbm_bandwidth: float = 2.0e12
    mfu: float = 0.58
    mbu: float = 0.70

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError(f"peak_flops must be positive, got {self.peak_flops}")
        if self.hbm_bytes <= 0:
            raise ValueError(f"hbm_bytes must be positive, got {self.hbm_bytes}")
        if self.hbm_bandwidth <= 0:
            raise ValueError(
                f"hbm_bandwidth must be positive, got {self.hbm_bandwidth}"
            )
        if not (0.0 < self.mfu <= 1.0):
            raise ValueError(f"mfu must be in (0, 1], got {self.mfu}")
        if not (0.0 < self.mbu <= 1.0):
            raise ValueError(f"mbu must be in (0, 1], got {self.mbu}")


@dataclass(frozen=True)
class HardwareConfig:
    """The serving testbed.

    Bandwidths are *effective* (already discounted for protocol overhead):
    the paper measures 26 GB/s on 16 lanes of PCIe Gen4 and states the
    disks deliver just under 5 GB/s.
    """

    gpu: GPUSpec = field(default_factory=GPUSpec)
    num_gpus: int = 4
    pcie_bandwidth: float = 26e9
    ssd_bandwidth: float = 5e9
    dram_bytes: int = 128 * GiB
    ssd_bytes: int = 10 * TiB

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive, got {self.num_gpus}")
        for attr in ("pcie_bandwidth", "ssd_bandwidth"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        for attr in ("dram_bytes", "ssd_bytes"):
            if getattr(self, attr) < 0:
                raise ValueError(
                    f"{attr} must be non-negative, got {getattr(self, attr)}"
                )

    @property
    def total_hbm_bytes(self) -> int:
        return self.num_gpus * self.gpu.hbm_bytes

    def free_hbm_bytes(self, model: ModelSpec) -> int:
        """HBM left for KV caches after loading model weights."""
        free = self.total_hbm_bytes - model.weight_bytes
        if free <= 0:
            raise ValueError(
                f"model {model.name} ({model.weight_bytes / GiB:.0f} GiB) does "
                f"not fit in {self.total_hbm_bytes / GiB:.0f} GiB of HBM"
            )
        return free

    def for_model(self, model: ModelSpec) -> "HardwareConfig":
        """Return a copy sized with the model's default GPU count."""
        return replace(self, num_gpus=model.default_num_gpus)


class EvictionPolicyName(str, Enum):
    """Eviction policies available in AttentionStore."""

    SCHEDULER_AWARE = "scheduler-aware"
    LRU = "lru"
    FIFO = "fifo"


@dataclass(frozen=True)
class StoreConfig:
    """AttentionStore sizing and policy configuration.

    ``dram_bytes``/``ssd_bytes`` cap the two tiers.  ``block_bytes`` is the
    allocation granularity (Section 4.1: host memory and disks are managed
    in blocks, similar to vLLM's paged KV cache).  ``hbm_cache_bytes``
    optionally enables an HBM caching tier used only for the Figure 24
    storage-medium comparison.  ``ttl_seconds`` is the per-session
    time-to-live from Section 4.3.6.
    """

    dram_bytes: int = 128 * GiB
    ssd_bytes: int = 10 * TiB
    hbm_cache_bytes: int = 0
    block_bytes: int = 16 * MiB
    policy: EvictionPolicyName = EvictionPolicyName.SCHEDULER_AWARE
    enable_prefetch: bool = True
    # Cross-session KV sharing: content-addressed copy-on-write prefix
    # blocks.  When enabled, prefix-bearing sessions save their shared
    # prefix once per content hash and later sessions reuse it; has no
    # effect on workloads without shared prefixes.
    enable_sharing: bool = True
    # Per-session time-to-live (Section 4.3.6).  None disables expiry; the
    # paper's end-to-end runs are capacity-bound, with the TTL exercised
    # only in the cache-capacity study (Figure 23).
    ttl_seconds: float | None = None
    dram_buffer_fraction: float = 0.05
    # Fraction of DRAM the look-ahead prefetch window may fill; the rest is
    # headroom for KV saves of completing jobs, so prefetched caches are
    # not immediately evicted again by the save path (thrash control).
    prefetch_capacity_fraction: float = 0.7

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so a NaN TTL would silently
        # turn expiry off; reject non-finite floats by name first.
        for name in (
            "ttl_seconds",
            "dram_buffer_fraction",
            "prefetch_capacity_fraction",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {self.block_bytes}")
        if self.dram_bytes < 0 or self.ssd_bytes < 0 or self.hbm_cache_bytes < 0:
            raise ValueError("tier capacities must be non-negative")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {self.ttl_seconds}")
        if not (0.0 <= self.dram_buffer_fraction < 1.0):
            raise ValueError(
                "dram_buffer_fraction must be in [0, 1), got "
                f"{self.dram_buffer_fraction}"
            )
        if not (0.0 < self.prefetch_capacity_fraction <= 1.0):
            raise ValueError(
                "prefetch_capacity_fraction must be in (0, 1], got "
                f"{self.prefetch_capacity_fraction}"
            )


class ServingMode(str, Enum):
    """End-to-end serving strategies compared in the paper.

    * ``RECOMPUTE`` (RE) — discard KV caches between turns; recompute the
      full history on each turn (the baseline).
    * ``CACHED`` (CA) — CachedAttention: save KV caches to AttentionStore
      on session deactivation, reuse on reactivation.
    """

    RECOMPUTE = "re"
    CACHED = "ca"


class TruncationPolicyName(str, Enum):
    """How context-window overflow is handled.

    * ``TOKEN`` — token truncation + full recomputation (TT / the RE path).
    * ``KV_DECOUPLED`` — CachedAttention's decoupled-positional-encoding KV
      truncation: saved KV stays valid (CA).
    * ``KV_EMBEDDED`` — KV saved with positions embedded; overflow
      invalidates the stored cache (the OF baseline of Figure 22).
    """

    TOKEN = "token"
    KV_DECOUPLED = "kv-decoupled"
    KV_EMBEDDED = "kv-embedded"


@dataclass(frozen=True)
class EngineConfig:
    """Serving-engine behaviour.

    ``truncation_ratio`` follows the paper's setting of 0.5 (on overflow the
    earliest half of the context is discarded).  ``read_buffer_layers`` and
    ``enable_async_save`` control the Section 3.2 overlap optimisations.
    ``decode_tokens_cap`` bounds per-turn decoding in the simulator.
    """

    mode: ServingMode = ServingMode.CACHED
    truncation: TruncationPolicyName = TruncationPolicyName.KV_DECOUPLED
    truncation_ratio: float = 0.5
    batch_size: int = 24
    enable_preload: bool = True
    read_buffer_layers: int = 15
    enable_async_save: bool = True
    write_buffer_layers: int = 15
    decode_chunk_iters: int = 32
    # Serving-path prefill efficiency relative to the Section 2.4
    # microbenchmark MFU.  The paper's end-to-end TTFT figures imply its
    # Transformers-based executor prefills at roughly a quarter of its own
    # microbenchmark rate (see EXPERIMENTS.md, "calibration").
    prefill_efficiency_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.decode_chunk_iters <= 0:
            raise ValueError(
                f"decode_chunk_iters must be positive, got {self.decode_chunk_iters}"
            )
        if not (0.0 < self.prefill_efficiency_factor <= 1.0):
            raise ValueError(
                "prefill_efficiency_factor must be in (0, 1], got "
                f"{self.prefill_efficiency_factor}"
            )
        if not (0.0 < self.truncation_ratio < 1.0):
            raise ValueError(
                f"truncation_ratio must be in (0, 1), got {self.truncation_ratio}"
            )
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.read_buffer_layers < 0 or self.write_buffer_layers < 0:
            raise ValueError("buffer layer counts must be non-negative")

    @classmethod
    def recompute_baseline(cls, **overrides: Any) -> "EngineConfig":
        """The RE baseline: no KV reuse, token truncation on overflow."""
        defaults: dict[str, Any] = dict(
            mode=ServingMode.RECOMPUTE,
            truncation=TruncationPolicyName.TOKEN,
        )
        defaults.update(overrides)
        return cls(**defaults)
