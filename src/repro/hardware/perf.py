"""Roofline performance model for transformer inference.

All execution times in the simulator come from this module.  The model is
intentionally simple and is calibrated against the measurements the paper
publishes about its own testbed:

* prefilling 2K tokens of LLaMA-65B on 4 A100s takes ~360 ms (Section 2.4)
  — reproduced by the compute-bound prefill path with MFU 0.58;
* the KV cache of those 2K tokens is 5 GB and takes ~192 ms to move over
  PCIe Gen4 x16 at 26 GB/s effective (Section 2.4) — reproduced by
  :meth:`PerfModel.kv_transfer_time`;
* decoding is memory-bandwidth-bound: each iteration streams the model
  weights plus the KV cache of every sequence in the batch.

Prefill:  ``t = FLOPs / (num_gpus * peak_flops * mfu)``
Decode:   ``t = (weight_bytes + kv_bytes) / (num_gpus * hbm_bw * mbu)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import HardwareConfig
from ..models import ModelSpec


@dataclass(frozen=True)
class PerfModel:
    """Analytical latency model for one (model, hardware) deployment."""

    model: ModelSpec
    hardware: HardwareConfig

    def __post_init__(self) -> None:
        # The simulator calls into this model on every event, so the
        # derived constants are computed once.
        hw = self.hardware
        object.__setattr__(
            self, "_effective_flops", hw.num_gpus * hw.gpu.peak_flops * hw.gpu.mfu
        )
        object.__setattr__(
            self,
            "_effective_hbm_bandwidth",
            hw.num_gpus * hw.gpu.hbm_bandwidth * hw.gpu.mbu,
        )
        object.__setattr__(
            self, "_kv_bytes_per_token", self.model.kv_bytes_per_token
        )

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    @property
    def effective_flops(self) -> float:
        return self._effective_flops

    @property
    def effective_hbm_bandwidth(self) -> float:
        return self._effective_hbm_bandwidth

    def prefill_time(self, n_new: int, n_past: int = 0, batch: int = 1) -> float:
        """Seconds to prefill ``n_new`` tokens per sequence for ``batch``
        sequences, each with ``n_past`` tokens of reused KV cache.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        flops = batch * self.model.prefill_flops(n_new, n_past)
        return flops / self._effective_flops

    def prefill_time_per_token(self, batch: int = 1) -> float:
        """Marginal prefill seconds per token (dense term only).

        This is the ``T_pref`` of the Section 3.2.1 buffer-sizing formula.
        """
        return batch * 2.0 * self.model.n_params / self.effective_flops

    def decode_step_time(self, context_lengths: Sequence[int]) -> float:
        """Seconds for one decoding iteration of a continuous batch.

        Each iteration streams the weights once and the KV cache of every
        active sequence; per-token FLOPs are negligible next to the
        bandwidth term for realistic batch sizes.
        """
        kv_bytes = self._kv_bytes_per_token * sum(context_lengths)
        total = self.model.weight_bytes + kv_bytes
        return total / self.effective_hbm_bandwidth

    def decode_segment_time(
        self, context_lengths: Sequence[int], n_iterations: int
    ) -> float:
        """Seconds for ``n_iterations`` consecutive decode iterations.

        Contexts grow by one token per iteration, so the KV term forms an
        arithmetic series; the closed form avoids iterating in Python.
        """
        if n_iterations < 0:
            raise ValueError(f"n_iterations must be >= 0, got {n_iterations}")
        return self.decode_segment_time_from_sum(
            sum(context_lengths), len(context_lengths), n_iterations
        )

    def decode_segment_time_from_sum(
        self, context_sum: int, batch: int, n_iterations: int
    ) -> float:
        """Like :meth:`decode_segment_time`, from the batch's total context
        length instead of the per-sequence list (O(1) for the simulator).
        """
        if n_iterations < 0:
            raise ValueError(f"n_iterations must be >= 0, got {n_iterations}")
        if n_iterations == 0:
            return 0.0
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        # sum over i in [0, n) of (context_sum + batch * i)
        total_ctx = (
            n_iterations * context_sum
            + batch * n_iterations * (n_iterations - 1) // 2
        )
        kv_bytes = self._kv_bytes_per_token * total_ctx
        weight_bytes = self.model.weight_bytes * n_iterations
        return (weight_bytes + kv_bytes) / self._effective_hbm_bandwidth

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def kv_transfer_time(self, n_tokens: int, bandwidth: float, batch: int = 1) -> float:
        """Seconds to move the KV cache of ``n_tokens`` tokens per sequence
        (``batch`` sequences) over a link of ``bandwidth`` bytes/second."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        return batch * self.model.kv_bytes(n_tokens) / bandwidth

    def kv_load_time_per_token(self, batch: int = 1) -> float:
        """The ``T_load`` of the Section 3.2.1 formula, at PCIe bandwidth."""
        return batch * self.model.kv_bytes_per_token / self.hardware.pcie_bandwidth

    # ------------------------------------------------------------------
    # Section 3.2.1 buffer sizing
    # ------------------------------------------------------------------
    def read_buffer_bytes(self, n_hist: int, n_new: int, batch: int = 1) -> float:
        """Buffer size that hides residual load time, per the paper:

        ``S_buf = B * (T_load * L_hist - T_pref * L_new)`` (>= 0).
        """
        gap = (
            self.kv_load_time_per_token(batch) * n_hist
            - self.prefill_time_per_token(batch) * n_new
        )
        return max(0.0, self.hardware.pcie_bandwidth * gap)
